package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
	"mcfs/internal/testutil"
)

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

func TestSolveTiny(t *testing.T) {
	g := pathGraph(t, 5)
	inst := &data.Instance{
		G:         g,
		Customers: []int32{0, 4},
		Facilities: []data.Facility{
			{Node: 0, Capacity: 1}, {Node: 2, Capacity: 2}, {Node: 4, Capacity: 1},
		},
		K: 2,
	}
	sol, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 0 {
		t.Fatalf("objective = %d, want 0 (facilities at both customer nodes)", sol.Objective)
	}
}

func TestSolveCapacityForcesSplit(t *testing.T) {
	g := pathGraph(t, 5)
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{1, 1},
		Facilities: []data.Facility{{Node: 1, Capacity: 1}, {Node: 3, Capacity: 1}, {Node: 0, Capacity: 1}},
		K:          2,
	}
	sol, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	// Optimal: facilities at 1 and 0 → costs 0 + 1 = 1.
	if sol.Objective != 1 {
		t.Fatalf("objective = %d, want 1", sol.Objective)
	}
}

func TestSolveRewiringBeatsGreedy(t *testing.T) {
	// The paper's §IV-B scenario shape: a greedy assignment would block
	// the optimal; rewiring must recover it. Star around node 2 (facility
	// hub, cap 1): optimal requires spreading.
	b := graph.NewBuilder(6, false)
	b.AddEdge(0, 2, 1).AddEdge(1, 2, 2).AddEdge(1, 3, 3).AddEdge(0, 4, 50).AddEdge(3, 5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0, 1},
		Facilities: []data.Facility{{Node: 2, Capacity: 1}, {Node: 3, Capacity: 1}, {Node: 4, Capacity: 1}},
		K:          2,
	}
	sol, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	// Optimal: 0→node2 (1), 1→node3 (3): total 4.
	if sol.Objective != 4 {
		t.Fatalf("objective = %d, want 4", sol.Objective)
	}
}

func TestSolveEmptyCustomers(t *testing.T) {
	g := pathGraph(t, 3)
	inst := &data.Instance{G: g, Facilities: []data.Facility{{Node: 0, Capacity: 1}}, K: 1}
	sol, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Assignment) != 0 || sol.Objective != 0 {
		t.Fatalf("unexpected solution for empty customers: %+v", sol)
	}
}

func TestSolveInfeasible(t *testing.T) {
	g := pathGraph(t, 3)
	cases := []*data.Instance{
		{ // not enough capacity
			G: g, Customers: []int32{0, 1, 2},
			Facilities: []data.Facility{{Node: 0, Capacity: 2}}, K: 1,
		},
		{ // k = 0 with customers
			G: g, Customers: []int32{0},
			Facilities: []data.Facility{{Node: 0, Capacity: 2}}, K: 0,
		},
		{ // no facilities at all
			G: g, Customers: []int32{0}, K: 3,
		},
	}
	for i, inst := range cases {
		if _, err := SolveCtx(context.Background(), inst, Options{}); !errors.Is(err, data.ErrInfeasible) {
			t.Fatalf("case %d: err = %v, want ErrInfeasible", i, err)
		}
	}
}

func TestSolveInvalidInstance(t *testing.T) {
	g := pathGraph(t, 3)
	inst := &data.Instance{G: g, Customers: []int32{9}, K: 1}
	if _, err := SolveCtx(context.Background(), inst, Options{}); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

func TestSolveKGreaterThanL(t *testing.T) {
	g := pathGraph(t, 6)
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0, 5},
		Facilities: []data.Facility{{Node: 1, Capacity: 2}, {Node: 4, Capacity: 2}},
		K:          10,
	}
	sol, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 2 {
		t.Fatalf("objective = %d, want 2", sol.Objective)
	}
}

func TestSolveDisconnectedComponents(t *testing.T) {
	// Two components; budget forces exactly one facility per component.
	b := graph.NewBuilder(6, false)
	b.AddEdge(0, 1, 1).AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1).AddEdge(4, 5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &data.Instance{
		G:         g,
		Customers: []int32{0, 2, 3, 5},
		Facilities: []data.Facility{
			{Node: 1, Capacity: 2}, {Node: 2, Capacity: 2},
			{Node: 4, Capacity: 2}, {Node: 5, Capacity: 2},
		},
		K: 2,
	}
	sol, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	// Optimal: node1 (serving 0 and 2: 1+1) and node4 (serving 3 and 5: 1+1) = 4.
	if sol.Objective != 4 {
		t.Fatalf("objective = %d, want 4", sol.Objective)
	}
}

func TestSolveValidOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		inst := testutil.RandomInstance(rng, testutil.Params{
			MinNodes: 8, MaxNodes: 60,
			MaxCustomers: 12, MaxFacilities: 10,
			MaxCapacity: 4, MaxWeight: 25,
		})
		sol, err := SolveCtx(context.Background(), inst, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v (m=%d l=%d k=%d)", trial, err, inst.M(), inst.L(), inst.K)
		}
		if _, err := inst.CheckSolution(sol); err != nil {
			t.Fatalf("trial %d: invalid solution: %v", trial, err)
		}
	}
}

func TestSolveValidOnMultiComponentInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		inst := testutil.RandomInstance(rng, testutil.Params{
			MinNodes: 12, MaxNodes: 60,
			MaxCustomers: 10, MaxFacilities: 8,
			MaxCapacity: 3, MaxWeight: 25,
			Components: 1 + rng.Intn(3),
		})
		sol, err := SolveCtx(context.Background(), inst, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, err := inst.CheckSolution(sol); err != nil {
			t.Fatalf("trial %d: invalid solution: %v", trial, err)
		}
	}
}

func TestSolveOptionVariantsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	variants := []Options{
		{Demand: DemandAll},
		{TieBreak: TieArbitrary},
	}
	for trial := 0; trial < 10; trial++ {
		inst := testutil.RandomInstance(rng, testutil.Params{
			MinNodes: 8, MaxNodes: 40,
			MaxCustomers: 8, MaxFacilities: 8,
			MaxCapacity: 3, MaxWeight: 20,
		})
		for vi, opt := range variants {
			sol, err := SolveCtx(context.Background(), inst, opt)
			if err != nil {
				t.Fatalf("trial %d variant %d: %v", trial, vi, err)
			}
			if _, err := inst.CheckSolution(sol); err != nil {
				t.Fatalf("trial %d variant %d: %v", trial, vi, err)
			}
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	inst := testutil.RandomInstance(rng, testutil.Params{
		MinNodes: 20, MaxNodes: 40,
		MaxCustomers: 10, MaxFacilities: 8,
		MaxCapacity: 3, MaxWeight: 20,
	})
	a, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective {
		t.Fatalf("nondeterministic objectives: %d vs %d", a.Objective, b.Objective)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("nondeterministic assignment")
		}
	}
}

func TestProgressCallback(t *testing.T) {
	// Long path, customers on even nodes, facilities everywhere, small k:
	// forces the exploration loop (l > k) and several iterations.
	g := pathGraph(t, 30)
	inst := &data.Instance{G: g, K: 3}
	for v := 0; v < 30; v += 2 {
		inst.Customers = append(inst.Customers, int32(v))
	}
	for v := 0; v < 30; v++ {
		inst.Facilities = append(inst.Facilities, data.Facility{Node: int32(v), Capacity: 5})
	}
	var iters []IterationStats
	_, err := SolveCtx(context.Background(), inst, Options{Progress: func(s IterationStats) { iters = append(iters, s) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 {
		t.Fatal("progress callback never invoked")
	}
	for i, s := range iters {
		if s.Iteration != i+1 {
			t.Fatalf("iteration numbering: got %d at position %d", s.Iteration, i)
		}
		if s.Covered < 0 || s.Covered > inst.M() {
			t.Fatalf("covered out of range: %d", s.Covered)
		}
		if i > 0 && s.Edges < iters[i-1].Edges {
			t.Fatal("cumulative edge count decreased")
		}
	}
	// Final iteration of a feasible run covers everyone (or the loop
	// ended in the provisions path; with connected random instances and
	// ample capacity, coverage is the norm).
	last := iters[len(iters)-1]
	if last.Covered != inst.M() {
		t.Logf("note: final covered = %d of %d (provisions path)", last.Covered, inst.M())
	}
}

func TestAssignToSelectionOptimalVsBruteForce(t *testing.T) {
	// For fixed selections the assignment must be a minimum-cost
	// matching; cross-check against trying all assignment permutations on
	// tiny cases.
	g := pathGraph(t, 7)
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0, 3, 6},
		Facilities: []data.Facility{{Node: 1, Capacity: 2}, {Node: 5, Capacity: 1}},
		K:          2,
	}
	sol, err := AssignToSelectionCtx(context.Background(), inst, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: customer 0: d(0,1)=1 d(0,5)=5; customer 3: d=2 or 2; customer 6: d=5 or 1.
	// Best: 0→f0 (1), 3→f0 (2), 6→f1 (1) = 4.
	if sol.Objective != 4 {
		t.Fatalf("objective = %d, want 4", sol.Objective)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
}

func TestAssignToSelectionInfeasibleSubset(t *testing.T) {
	g := pathGraph(t, 4)
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0, 1},
		Facilities: []data.Facility{{Node: 2, Capacity: 1}, {Node: 3, Capacity: 5}},
		K:          1,
	}
	if _, err := AssignToSelectionCtx(context.Background(), inst, []int{0}); !errors.Is(err, data.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestRebuildSelectionDirect(t *testing.T) {
	// Force the rebuild path: deficit component with no unselected
	// facility to swap in is impossible here, so call rebuildSelection
	// directly to cover its logic.
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1, 1).AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &data.Instance{
		G:         g,
		Customers: []int32{0, 2, 3},
		Facilities: []data.Facility{
			{Node: 1, Capacity: 1}, {Node: 2, Capacity: 1}, {Node: 3, Capacity: 2},
		},
		K: 2,
	}
	comp, count := g.Components()
	custCount := make([]int, count)
	for _, s := range inst.Customers {
		custCount[comp[s]]++
	}
	sel, err := rebuildSelection(inst, comp, count, custCount, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Component of nodes 2,3 has 2 customers: needs the cap-2 facility.
	found := false
	for _, j := range sel {
		if j == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("rebuild did not pick the top-capacity facility: %v", sel)
	}
}
