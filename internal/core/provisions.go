package core

import (
	"context"
	"fmt"
	"sort"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// SelectGreedyCtx implements Algorithm 4: while fewer than k facilities
// are selected, repeatedly locate the customer farthest from the current
// selection (network distance) and add the unselected candidate facility
// nearest to it. This retains coverage and improves the cost objective.
// The per-pick multi-source Dijkstra and nearest-candidate searches poll
// ctx; on cancellation it returns nil and ctx.Err().
func SelectGreedyCtx(ctx context.Context, inst *data.Instance, selection []int) ([]int, error) {
	k, l := inst.K, inst.L()
	if k > l {
		k = l
	}
	selected := make([]bool, l)
	for _, j := range selection {
		selected[j] = true
	}
	// Shared mask of unselected candidate nodes for the NN searches.
	mask := make([]bool, inst.G.N())
	unselected := 0
	for j, f := range inst.Facilities {
		if !selected[j] {
			mask[f.Node] = true
			unselected++
		}
	}
	_, nodeToFac := inst.CandidateMask()

	for len(selection) < k && unselected > 0 {
		// Farthest customer from the current selection.
		var sStar int32
		if len(selection) == 0 {
			sStar = inst.Customers[0]
		} else {
			srcs := make([]int32, len(selection))
			for i, j := range selection {
				srcs[i] = inst.Facilities[j].Node
			}
			dist, _, err := inst.G.MultiSourceDijkstraCtx(ctx, srcs)
			if err != nil {
				return nil, err
			}
			best := int64(-1)
			for _, s := range inst.Customers {
				if dist[s] > best {
					best = dist[s]
					sStar = s
				}
			}
		}
		// Nearest unselected candidate to that customer; fall back to an
		// arbitrary unselected candidate if none is reachable.
		fStar := -1
		search := graph.NewNNSearcherCtx(ctx, inst.G, sStar, mask)
		if node, _, ok := search.Next(); ok {
			fStar = nodeToFac[node]
		} else {
			if err := search.Err(); err != nil {
				return nil, err
			}
			for j := range inst.Facilities {
				if !selected[j] {
					fStar = j
					break
				}
			}
		}
		selection = append(selection, fStar)
		selected[fStar] = true
		mask[inst.Facilities[fStar].Node] = false
		unselected--
	}
	return selection, nil
}

// CoverComponentsCtx implements Algorithm 5: it revises the selection so
// that every connected component of the network holds enough selected
// capacity for its customers, swapping the lowest-capacity selected
// facility of the most over-provisioned component for the
// highest-capacity unselected facility of the most under-provisioned
// one. If the swap loop stalls, a deterministic rebuild (per-component
// top-capacity facilities first) restores correctness; the instance is
// known feasible at this point, so a covering selection always exists.
// Cancellation is checked once per swap; on cancellation it returns nil
// and ctx.Err().
func CoverComponentsCtx(ctx context.Context, inst *data.Instance, selection []int) ([]int, error) {
	comp, count := inst.G.Components()
	custCount := make([]int, count)
	for _, s := range inst.Customers {
		custCount[comp[s]]++
	}
	selected := make([]bool, inst.L())
	for _, j := range selection {
		selected[j] = true
	}
	surplus := make([]int64, count)
	for g := 0; g < count; g++ {
		surplus[g] = -int64(custCount[g])
	}
	for j, f := range inst.Facilities {
		if selected[j] {
			surplus[comp[f.Node]] += int64(f.Capacity)
		}
	}

	maxSwaps := inst.L() + inst.K + 1
	for swaps := 0; ; swaps++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gm, gM := -1, -1
		for g := 0; g < count; g++ {
			if surplus[g] < 0 && (gm == -1 || surplus[g] < surplus[gm]) {
				gm = g
			}
		}
		if gm == -1 {
			break // every component has sufficient capacity
		}
		if swaps >= maxSwaps {
			return rebuildSelection(inst, comp, count, custCount, selection)
		}
		// Donor: highest-surplus component (≠ gm) holding a selected facility.
		for g := 0; g < count; g++ {
			if g == gm {
				continue
			}
			if !hasSelectedIn(inst, selected, comp, g) {
				continue
			}
			if gM == -1 || surplus[g] > surplus[gM] {
				gM = g
			}
		}
		if gM == -1 {
			return rebuildSelection(inst, comp, count, custCount, selection)
		}
		out := -1 // lowest-capacity selected facility in gM
		for j, f := range inst.Facilities {
			if selected[j] && comp[f.Node] == int32(gM) {
				if out == -1 || f.Capacity < inst.Facilities[out].Capacity {
					out = j
				}
			}
		}
		in := -1 // highest-capacity unselected facility in gm
		for j, f := range inst.Facilities {
			if !selected[j] && comp[f.Node] == int32(gm) {
				if in == -1 || f.Capacity > inst.Facilities[in].Capacity {
					in = j
				}
			}
		}
		if in == -1 {
			return rebuildSelection(inst, comp, count, custCount, selection)
		}
		selected[out] = false
		selected[in] = true
		surplus[gM] -= int64(inst.Facilities[out].Capacity)
		surplus[gm] += int64(inst.Facilities[in].Capacity)
		for idx, j := range selection {
			if j == out {
				selection[idx] = in
				break
			}
		}
	}
	return selection, nil
}

func hasSelectedIn(inst *data.Instance, selected []bool, comp []int32, g int) bool {
	for j, f := range inst.Facilities {
		if selected[j] && comp[f.Node] == int32(g) {
			return true
		}
	}
	return false
}

// rebuildSelection deterministically constructs a covering selection:
// each component first receives its top-capacity facilities until its
// customers fit, then the remaining budget keeps as much of the previous
// selection as possible.
func rebuildSelection(inst *data.Instance, comp []int32, count int, custCount []int, prev []int) ([]int, error) {
	byComp := make([][]int, count)
	for j, f := range inst.Facilities {
		g := comp[f.Node]
		byComp[g] = append(byComp[g], j)
	}
	chosen := make([]bool, inst.L())
	var selection []int
	for g := 0; g < count; g++ {
		if custCount[g] == 0 {
			continue
		}
		sort.Slice(byComp[g], func(a, b int) bool {
			fa, fb := inst.Facilities[byComp[g][a]], inst.Facilities[byComp[g][b]]
			if fa.Capacity != fb.Capacity {
				return fa.Capacity > fb.Capacity
			}
			return byComp[g][a] < byComp[g][b]
		})
		need := custCount[g]
		for _, j := range byComp[g] {
			if need <= 0 {
				break
			}
			need -= inst.Facilities[j].Capacity
			chosen[j] = true
			selection = append(selection, j)
		}
		if need > 0 {
			return nil, fmt.Errorf("wma: component %d lacks capacity for %d customers: %w", g, custCount[g], data.ErrInfeasible)
		}
	}
	if len(selection) > inst.K {
		return nil, fmt.Errorf("wma: covering selection needs %d facilities, budget %d: %w", len(selection), inst.K, data.ErrInfeasible)
	}
	for _, j := range prev {
		if len(selection) == inst.K {
			break
		}
		if !chosen[j] {
			chosen[j] = true
			selection = append(selection, j)
		}
	}
	return selection, nil
}
