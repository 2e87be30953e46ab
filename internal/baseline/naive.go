package baseline

import (
	"context"
	"fmt"
	"math/rand"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// NaiveCtx implements "WMA Naïve" (§VII-A): the WMA main loop — demand
// vector, set-cover selection, selective demand updates — but with the
// exact bipartite matching replaced by a greedy procedure: in every
// iteration customers are processed in a random order and each is
// assigned to its closest d_i candidate facilities that still have spare
// capacity, never rewiring previous assignments. The final assignment
// over the selected set is greedy as well.
//
// Cancellation is checked once per customer per iteration and inside the
// per-customer network searches. On cancellation it returns nil and
// ctx.Err(); every uncancelled run at the same seed is byte-identical.
func NaiveCtx(ctx context.Context, inst *data.Instance, seed int64) (*data.Solution, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if ok, _ := inst.Feasible(); !ok {
		return nil, data.ErrInfeasible
	}
	if inst.M() == 0 {
		return &data.Solution{Selected: []int{}, Assignment: []int{}}, nil
	}
	rng := rand.New(rand.NewSource(seed))
	m, l, k := inst.M(), inst.L(), inst.K

	var selection []int
	if l <= k {
		selection = make([]int, l)
		for j := range selection {
			selection[j] = j
		}
	} else {
		ga := newGreedyAssign(ctx, inst)
		demand := make([]int, m)
		for i := range demand {
			demand[i] = 1
		}
		cover := core.NewCoverer(ga, core.TieLRU)
		order := rng.Perm(m)
		var covered bool
		for {
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			for _, i := range order {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				ga.satisfy(i, demand[i])
			}
			var deltaD []bool
			selection, deltaD, covered = cover.Cover(k)
			progress := false
			for i := 0; i < m; i++ {
				if deltaD[i] && demand[i] < l && !ga.exhausted[i] {
					demand[i]++
					progress = true
				}
			}
			if covered || !progress {
				break
			}
		}
		if len(selection) < k {
			var err error
			selection, err = core.SelectGreedyCtx(ctx, inst, selection)
			if err != nil {
				return nil, err
			}
		}
		if !covered {
			var err error
			selection, err = core.CoverComponentsCtx(ctx, inst, selection)
			if err != nil {
				return nil, err
			}
		}
	}
	return greedyFinal(ctx, inst, selection, rng)
}

// greedyAssign tracks the naive exploration state; it implements
// core.Coverage.
type greedyAssign struct {
	ctx       context.Context
	inst      *data.Instance
	searchers []*graph.NNSearcher
	isCand    []bool
	nodeToFac map[int32]int
	explored  [][]int32 // per customer: facility indexes in NN order
	has       []map[int32]bool
	assigned  [][]int // per facility: customers
	changed   []int32 // facilities assigned a customer since the last TakeChanged
	isChanged []bool  // per facility: listed in changed
	counts    []int   // per customer: number of assignments
	exhausted []bool
}

func newGreedyAssign(ctx context.Context, inst *data.Instance) *greedyAssign {
	isCand, nodeToFac := inst.CandidateMask()
	return &greedyAssign{
		ctx:       ctx,
		inst:      inst,
		searchers: make([]*graph.NNSearcher, inst.M()),
		isCand:    isCand,
		nodeToFac: nodeToFac,
		explored:  make([][]int32, inst.M()),
		has:       make([]map[int32]bool, inst.M()),
		assigned:  make([][]int, inst.L()),
		isChanged: make([]bool, inst.L()),
		counts:    make([]int, inst.M()),
		exhausted: make([]bool, inst.M()),
	}
}

func (ga *greedyAssign) M() int                  { return ga.inst.M() }
func (ga *greedyAssign) L() int                  { return ga.inst.L() }
func (ga *greedyAssign) AssignedCount(j int) int { return len(ga.assigned[j]) }

func (ga *greedyAssign) TakeChanged() []int32 {
	out := ga.changed
	for _, j := range out {
		ga.isChanged[j] = false
	}
	ga.changed = out[:0]
	return out
}

func (ga *greedyAssign) CountUncovered(j int, covered []bool) int {
	n := 0
	for _, c := range ga.assigned[j] {
		if !covered[c] {
			n++
		}
	}
	return n
}

func (ga *greedyAssign) MarkCovered(j int, covered []bool) int {
	n := 0
	for _, c := range ga.assigned[j] {
		if !covered[c] {
			covered[c] = true
			n++
		}
	}
	return n
}

// satisfy greedily assigns customer i to its nearest facilities with
// spare capacity until it holds `want` assignments or options run out.
func (ga *greedyAssign) satisfy(i, want int) {
	if ga.has[i] == nil {
		ga.has[i] = make(map[int32]bool)
	}
	for ga.counts[i] < want {
		progressed := false
		for _, j := range ga.explored[i] {
			if ga.has[i][j] {
				continue
			}
			if len(ga.assigned[j]) < ga.inst.Facilities[j].Capacity {
				if !ga.isChanged[j] {
					ga.isChanged[j] = true
					ga.changed = append(ga.changed, j)
				}
				ga.assigned[j] = append(ga.assigned[j], i)
				ga.has[i][j] = true
				ga.counts[i]++
				progressed = true
				break
			}
		}
		if progressed {
			continue
		}
		if ga.searchers[i] == nil {
			ga.searchers[i] = graph.NewNNSearcherCtx(ga.ctx, ga.inst.G, ga.inst.Customers[i], ga.isCand)
		}
		node, _, ok := ga.searchers[i].Next()
		if !ok {
			ga.exhausted[i] = true
			return
		}
		ga.explored[i] = append(ga.explored[i], int32(ga.nodeToFac[node]))
	}
}

// greedyFinal assigns every customer to its nearest selected facility
// with spare capacity, in a random processing order.
func greedyFinal(ctx context.Context, inst *data.Instance, selection []int, rng *rand.Rand) (*data.Solution, error) {
	mask := make([]bool, inst.G.N())
	nodeToSel := make(map[int32]int, len(selection))
	for _, j := range selection {
		mask[inst.Facilities[j].Node] = true
		nodeToSel[inst.Facilities[j].Node] = j
	}
	load := make(map[int]int, len(selection))
	assignment := make([]int, inst.M())
	var objective int64
	for _, i := range rng.Perm(inst.M()) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := graph.NewNNSearcherCtx(ctx, inst.G, inst.Customers[i], mask)
		placed := false
		for {
			node, d, ok := s.Next()
			if !ok {
				break
			}
			j := nodeToSel[node]
			if load[j] < inst.Facilities[j].Capacity {
				load[j]++
				assignment[i] = j
				objective += d
				placed = true
				break
			}
		}
		if !placed {
			if err := s.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("baseline: naive final assignment failed for customer %d: %w", i, data.ErrInfeasible)
		}
	}
	return &data.Solution{Selected: selection, Assignment: assignment, Objective: objective}, nil
}
