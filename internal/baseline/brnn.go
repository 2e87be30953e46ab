package baseline

import (
	"context"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// BRNNCtx implements the paper's Bichromatic-Reverse-Nearest-Neighbor
// baseline (§III-A, §VII-A): facilities are placed one at a time; the
// first minimizes the aggregate network distance to all customers
// (1-median over candidates), and each subsequent one maximizes the
// number of customers it would attract — customers strictly closer to it
// than to their nearest already-selected facility (the network analogue
// of overlapping Nearest Location Regions under the MaxSum objective).
// Ties break toward the lower facility index. A final optimal bipartite
// matching produces the assignment and objective, exactly as the paper's
// implementation runs SIA after the selection.
//
// Every per-customer and per-facility Dijkstra polls ctx, so even the
// expensive 1-median and attraction-counting phases return promptly. On
// cancellation it returns nil and ctx.Err(); every uncancelled run is
// byte-identical.
func BRNNCtx(ctx context.Context, inst *data.Instance) (*data.Solution, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if ok, _ := inst.Feasible(); !ok {
		return nil, data.ErrInfeasible
	}
	if inst.M() == 0 {
		return &data.Solution{Selected: []int{}, Assignment: []int{}}, nil
	}
	k := inst.K
	if k > inst.L() {
		k = inst.L()
	}
	_, nodeToFac := inst.CandidateMask()

	// First facility: candidate minimizing Σ dist(s, f) — one Dijkstra
	// per customer, accumulating distances on every candidate node.
	// Unreachable pairs contribute a large-but-finite penalty so that
	// candidates inside customer-rich components win.
	agg := make([]int64, inst.L())
	for _, s := range inst.Customers {
		dist, err := inst.G.DijkstraCtx(ctx, s)
		if err != nil {
			return nil, err
		}
		for j, f := range inst.Facilities {
			d := dist[f.Node]
			if d >= graph.Inf {
				d = graph.Inf / int64(inst.M()+1)
			}
			agg[j] += d
		}
	}
	first := 0
	for j := 1; j < inst.L(); j++ {
		if agg[j] < agg[first] {
			first = j
		}
	}
	selection := []int{first}
	selected := make([]bool, inst.L())
	selected[first] = true

	// nearestSel[i]: distance from customer i to its nearest selected
	// facility, maintained by one Dijkstra from each newly placed one.
	nearestSel := make([]int64, inst.M())
	if err := updateNearest(ctx, inst, inst.Facilities[first].Node, nearestSel, true); err != nil {
		return nil, err
	}

	// One scratch for the whole attraction phase: the bounded searches
	// below run m×(k-1) times and would otherwise allocate a map and
	// frontier queue each (see graph.SearchScratch).
	scratch := inst.G.NewScratch()
	for len(selection) < k {
		attract := make([]int, inst.L())
		for i, s := range inst.Customers {
			radius := nearestSel[i] - 1
			if radius < 0 {
				continue
			}
			if nearestSel[i] >= graph.Inf {
				radius = -1 // unbounded: customer unreached by any selected facility
			}
			if err := inst.G.DijkstraWithinScratchCtx(ctx, s, radius, scratch); err != nil {
				return nil, err
			}
			nearest := nearestSel[i]
			scratch.Each(func(node int32, d int64) bool {
				if j, ok := nodeToFac[node]; ok && !selected[j] && d < nearest {
					attract[j]++
				}
				return true
			})
		}
		best := -1
		for j := range attract {
			if selected[j] {
				continue
			}
			if best == -1 || attract[j] > attract[best] {
				best = j
			}
		}
		if best == -1 {
			break
		}
		selection = append(selection, best)
		selected[best] = true
		if err := updateNearest(ctx, inst, inst.Facilities[best].Node, nearestSel, false); err != nil {
			return nil, err
		}
	}

	selection, err := core.CoverComponentsCtx(ctx, inst, selection)
	if err != nil {
		return nil, err
	}
	if len(selection) < inst.K {
		selection, err = core.SelectGreedyCtx(ctx, inst, selection)
		if err != nil {
			return nil, err
		}
	}
	return core.AssignToSelectionCtx(ctx, inst, selection)
}

// updateNearest lowers each customer's nearest-selected distance given a
// newly opened facility node (one Dijkstra from that node).
func updateNearest(ctx context.Context, inst *data.Instance, facNode int32, nearestSel []int64, first bool) error {
	dist, err := inst.G.DijkstraCtx(ctx, facNode)
	if err != nil {
		return err
	}
	for i, s := range inst.Customers {
		if first || dist[s] < nearestSel[i] {
			nearestSel[i] = dist[s]
		}
	}
	return nil
}
