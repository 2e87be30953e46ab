package core_test

import (
	"context"
	"math/rand"
	"testing"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/graph"
	"mcfs/internal/solver"
	"mcfs/internal/testutil"
)

// TestWMANearOptimal mirrors the paper's central quality claim: WMA is
// competitive with the exact solver. Every instance must stay within a
// generous per-instance factor, and the average ratio must be close to 1.
func TestWMANearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var ratioSum float64
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		inst := testutil.RandomInstance(rng, testutil.Params{
			MinNodes: 10, MaxNodes: 50,
			MaxCustomers: 8, MaxFacilities: 7,
			MaxCapacity: 3, MaxWeight: 25,
		})
		opt, err := solver.ExhaustiveCtx(context.Background(), inst)
		if err != nil {
			t.Fatalf("trial %d: exhaustive: %v", trial, err)
		}
		sol, err := core.SolveCtx(context.Background(), inst, core.Options{})
		if err != nil {
			t.Fatalf("trial %d: wma: %v", trial, err)
		}
		if sol.Objective < opt.Objective {
			t.Fatalf("trial %d: heuristic %d beats proven optimum %d — solver bug",
				trial, sol.Objective, opt.Objective)
		}
		ratio := 1.0
		if opt.Objective > 0 {
			ratio = float64(sol.Objective) / float64(opt.Objective)
		} else if sol.Objective > 0 {
			ratio = 2 // optimum is 0 but WMA paid something
		}
		if ratio > 3.0 {
			t.Fatalf("trial %d: WMA %d vs optimal %d (ratio %.2f) — far from optimal (m=%d l=%d k=%d)",
				trial, sol.Objective, opt.Objective, ratio, inst.M(), inst.L(), inst.K)
		}
		ratioSum += ratio
	}
	if avg := ratioSum / trials; avg > 1.25 {
		t.Fatalf("average WMA/optimal ratio %.3f exceeds 1.25", avg)
	}
}

// TestWMAOptimalWhenSelectionTrivial checks exact optimality whenever
// k >= l: the only freedom is the assignment, which WMA solves optimally.
func TestWMAOptimalWhenSelectionTrivial(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 20; trial++ {
		inst := testutil.RandomInstance(rng, testutil.Params{
			MinNodes: 10, MaxNodes: 40,
			MaxCustomers: 8, MaxFacilities: 6,
			MaxCapacity: 3, MaxWeight: 25,
		})
		inst.K = inst.L()
		opt, err := solver.ExhaustiveCtx(context.Background(), inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sol, err := core.SolveCtx(context.Background(), inst, core.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Objective != opt.Objective {
			t.Fatalf("trial %d: WMA %d != optimal %d with k=l", trial, sol.Objective, opt.Objective)
		}
	}
}

// TestSelectiveDemandNoWorseOnAverage sanity-checks the paper's §IV-F
// claim direction: the selective policy should not be systematically
// worse than raising every demand.
func TestSelectiveDemandComparable(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var selSum, allSum int64
	for trial := 0; trial < 20; trial++ {
		inst := testutil.RandomInstance(rng, testutil.Params{
			MinNodes: 20, MaxNodes: 60,
			MaxCustomers: 10, MaxFacilities: 8,
			MaxCapacity: 3, MaxWeight: 25,
		})
		a, err := core.SolveCtx(context.Background(), inst, core.Options{Demand: core.DemandSelective})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b, err := core.SolveCtx(context.Background(), inst, core.Options{Demand: core.DemandAll})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		selSum += a.Objective
		allSum += b.Objective
	}
	if float64(selSum) > 1.5*float64(allSum)+10 {
		t.Fatalf("selective demand much worse than raise-all: %d vs %d", selSum, allSum)
	}
}

// --- unit tests for the special provisions --------------------------------

func TestSelectGreedyFillsToK(t *testing.T) {
	g := pathGraph(t, 10)
	inst := &data.Instance{
		G:         g,
		Customers: []int32{0, 9},
		K:         3,
	}
	for v := 0; v < 10; v += 2 {
		inst.Facilities = append(inst.Facilities, data.Facility{Node: int32(v), Capacity: 2})
	}
	sel, err := core.SelectGreedyCtx(context.Background(), inst, []int{0}) // facility at node 0 preselected
	if err != nil || len(sel) != 3 {
		t.Fatalf("selection %v (err %v), want 3 facilities", sel, err)
	}
	seen := map[int]bool{}
	for _, j := range sel {
		if seen[j] {
			t.Fatalf("duplicate selection %v", sel)
		}
		seen[j] = true
	}
	// First addition must be the facility nearest to the farthest
	// customer (node 9 → facility at node 8).
	if inst.Facilities[sel[1]].Node != 8 {
		t.Fatalf("greedy added node %d first, want 8", inst.Facilities[sel[1]].Node)
	}
}

func TestSelectGreedyFromEmpty(t *testing.T) {
	g := pathGraph(t, 5)
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{2},
		Facilities: []data.Facility{{Node: 0, Capacity: 1}, {Node: 4, Capacity: 1}},
		K:          1,
	}
	sel, err := core.SelectGreedyCtx(context.Background(), inst, nil)
	if err != nil || len(sel) != 1 {
		t.Fatalf("selection = %v (err %v)", sel, err)
	}
}

func TestCoverComponentsRepairsDeficit(t *testing.T) {
	// Components A (nodes 0-2) and B (nodes 3-5). All customers in B,
	// but the initial selection sits in A.
	b := graph.NewBuilder(6, false)
	b.AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(3, 4, 1).AddEdge(4, 5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &data.Instance{
		G:         g,
		Customers: []int32{3, 4, 5},
		Facilities: []data.Facility{
			{Node: 0, Capacity: 5}, {Node: 1, Capacity: 1},
			{Node: 4, Capacity: 2}, {Node: 5, Capacity: 3},
		},
		K: 2,
	}
	sel, err := core.CoverComponentsCtx(context.Background(), inst, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var capB int
	for _, j := range sel {
		if inst.Facilities[j].Node >= 3 {
			capB += inst.Facilities[j].Capacity
		}
	}
	if capB < 3 {
		t.Fatalf("component B still lacks capacity after repair: selection %v", sel)
	}
	if len(sel) != 2 {
		t.Fatalf("selection size changed: %v", sel)
	}
}

func TestCoverComponentsNoopWhenBalanced(t *testing.T) {
	g := pathGraph(t, 4)
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0, 3},
		Facilities: []data.Facility{{Node: 1, Capacity: 2}, {Node: 2, Capacity: 2}},
		K:          1,
	}
	sel, err := core.CoverComponentsCtx(context.Background(), inst, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0] != 0 {
		t.Fatalf("balanced selection modified: %v", sel)
	}
}

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
