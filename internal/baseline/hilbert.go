// Package baseline implements the three scalable MCFS baselines of the
// paper's evaluation (§VII-A):
//
//   - HilbertCtx: bucket customers along a Hilbert space-filling curve
//     into k groups, snap each group's centroid to the nearest candidate
//     facility, then build one optimal assignment;
//   - BRNNCtx: iteratively place facilities at the candidate node
//     attracting the most customers (MaxSum over network
//     nearest-location regions), then build one optimal assignment;
//   - NaiveCtx: the WMA loop with the exact bipartite matching replaced
//     by a greedy no-rewiring assignment ("WMA Naïve").
//
// All three return data.ErrInfeasible exactly when WMA does.
package baseline

import (
	"context"
	"errors"
	"sort"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/hilbert"
	"mcfs/internal/spatial"
)

// ErrNoCoords is returned by HilbertCtx when the network has no planar
// coordinates (the curve needs them).
var ErrNoCoords = errors.New("baseline: Hilbert requires node coordinates")

// hilbertOrder quantizes coordinates to a 2^16 grid: far below any
// meaningful customer-separation scale.
const hilbertOrder = 16

// HilbertCtx implements the paper's first baseline (after [17]): split the
// customers into k buckets of ⌈m/k⌉ consecutive points in Hilbert-curve
// order and place a facility at the candidate node nearest each bucket's
// centroid. Components are handled separately, each receiving a facility
// budget proportional to its customer count (§VII-C); the final
// customer→facility assignment is an optimal bipartite matching under
// the true capacities, with a component-capacity repair pass first.
//
// Cancellation is checked once per component during bucketing and
// throughout the repair and final matching phases. On cancellation it
// returns nil and ctx.Err(); every uncancelled run is byte-identical.
func HilbertCtx(ctx context.Context, inst *data.Instance) (*data.Solution, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if !inst.G.HasCoords() {
		return nil, ErrNoCoords
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

	comp, count := inst.G.Components()
	custByComp := make([][]int32, count)
	for _, s := range inst.Customers {
		custByComp[comp[s]] = append(custByComp[comp[s]], s)
	}
	facByComp := make([][]int, count)
	for j, f := range inst.Facilities {
		c := comp[f.Node]
		facByComp[c] = append(facByComp[c], j)
	}
	budget := splitBudget(custByComp, facByComp, k, inst.M())

	minX, maxX, minY, maxY := inst.G.Extent()
	var selection []int
	for c := 0; c < count; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if budget[c] == 0 || len(custByComp[c]) == 0 {
			continue
		}
		selection = append(selection, bucketAndSnap(inst, custByComp[c], facByComp[c], budget[c], minX, maxX, minY, maxY)...)
	}

	selection, err := core.CoverComponentsCtx(ctx, inst, selection)
	if err != nil {
		return nil, err
	}
	return core.AssignToSelectionCtx(ctx, inst, selection)
}

// splitBudget distributes k facilities over components proportionally to
// customer counts (largest remainder), at least one per customer-bearing
// component, never exceeding a component's candidate supply.
func splitBudget(custByComp [][]int32, facByComp [][]int, k, m int) []int {
	count := len(custByComp)
	budget := make([]int, count)
	type frac struct {
		comp int
		rem  float64
	}
	var fracs []frac
	used := 0
	for c := 0; c < count; c++ {
		if len(custByComp[c]) == 0 || len(facByComp[c]) == 0 {
			continue
		}
		share := float64(k) * float64(len(custByComp[c])) / float64(m)
		budget[c] = int(share)
		if budget[c] < 1 {
			budget[c] = 1
		}
		if budget[c] > len(facByComp[c]) {
			budget[c] = len(facByComp[c])
		}
		used += budget[c]
		fracs = append(fracs, frac{c, share - float64(int(share))})
	}
	sort.Slice(fracs, func(i, j int) bool { return fracs[i].rem > fracs[j].rem })
	for _, f := range fracs {
		if used >= k {
			break
		}
		if budget[f.comp] < len(facByComp[f.comp]) {
			budget[f.comp]++
			used++
		}
	}
	// The forced one-per-component minimum can overshoot k together with
	// the integer shares; trim the largest budgets back (never below 1).
	for used > k {
		big := -1
		for c := range budget {
			if budget[c] > 1 && (big == -1 || budget[c] > budget[big]) {
				big = c
			}
		}
		if big == -1 {
			break // all at the minimum; feasibility pre-check guarantees used <= k here
		}
		budget[big]--
		used--
	}
	return budget
}

// bucketAndSnap orders a component's customers along the Hilbert curve,
// forms kc buckets of ⌈m/kc⌉ consecutive customers, and selects for each
// the unselected candidate facility nearest (Euclidean) to the bucket
// centroid, consuming candidates through a grid spatial index.
func bucketAndSnap(inst *data.Instance, customers []int32, candidates []int, kc int, minX, maxX, minY, maxY float64) []int {
	g := inst.G
	ordered := append([]int32(nil), customers...)
	key := func(s int32) uint64 {
		x, y := g.Coord(s)
		return hilbert.EncodeFloat(hilbertOrder, x, y, minX, maxX, minY, maxY)
	}
	sort.Slice(ordered, func(i, j int) bool {
		ki, kj := key(ordered[i]), key(ordered[j])
		if ki != kj {
			return ki < kj
		}
		return ordered[i] < ordered[j]
	})
	xs := make([]float64, len(candidates))
	ys := make([]float64, len(candidates))
	ids := make([]int32, len(candidates))
	for i, j := range candidates {
		xs[i], ys[i] = g.Coord(inst.Facilities[j].Node)
		ids[i] = int32(j)
	}
	index := spatial.NewGridIndex(xs, ys, ids)

	size := (len(ordered) + kc - 1) / kc
	var selection []int
	for b := 0; b < len(ordered); b += size {
		end := b + size
		if end > len(ordered) {
			end = len(ordered)
		}
		var cx, cy float64
		for _, s := range ordered[b:end] {
			x, y := g.Coord(s)
			cx += x
			cy += y
		}
		cx /= float64(end - b)
		cy /= float64(end - b)
		id, slot, ok := index.Nearest(cx, cy)
		if !ok {
			break // candidate supply exhausted
		}
		index.Remove(slot)
		selection = append(selection, int(id))
	}
	return selection
}
