package localsearch

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/graph"
	"mcfs/internal/solver"
	"mcfs/internal/testutil"
)

func TestImproveFixesBadSelection(t *testing.T) {
	// Path graph; deliberately bad starting selection far from customers.
	b := graph.NewBuilder(10, false)
	for i := 0; i < 9; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &data.Instance{
		G:         g,
		Customers: []int32{0, 1},
		Facilities: []data.Facility{
			{Node: 0, Capacity: 2}, {Node: 5, Capacity: 2}, {Node: 9, Capacity: 2},
		},
		K: 1,
	}
	bad, err := core.AssignToSelectionCtx(context.Background(), inst, []int{2}, core.Options{}) // facility at node 9
	if err != nil {
		t.Fatal(err)
	}
	improved, st, err := ImproveCtx(context.Background(), inst, bad, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if improved.Objective >= bad.Objective {
		t.Fatalf("no improvement: %d -> %d", bad.Objective, improved.Objective)
	}
	// Optimum: facility at node 0 (cost 0+1 = 1).
	if improved.Objective != 1 {
		t.Fatalf("objective = %d, want 1", improved.Objective)
	}
	if st.Accepted == 0 || st.Evaluated == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := inst.CheckSolution(improved); err != nil {
		t.Fatal(err)
	}
}

func TestImproveNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 20; trial++ {
		inst := testutil.RandomInstance(rng, testutil.Params{
			MinNodes: 15, MaxNodes: 50,
			MaxCustomers: 8, MaxFacilities: 8,
			MaxCapacity: 3, MaxWeight: 20,
		})
		sol, err := core.SolveCtx(context.Background(), inst, core.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		improved, _, err := ImproveCtx(context.Background(), inst, sol, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if improved.Objective > sol.Objective {
			t.Fatalf("trial %d: local search worsened %d -> %d", trial, sol.Objective, improved.Objective)
		}
		if _, err := inst.CheckSolution(improved); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Never better than the proven optimum.
		opt, err := solver.ExhaustiveCtx(context.Background(), inst, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if improved.Objective < opt.Objective {
			t.Fatalf("trial %d: local search beat the optimum?!", trial)
		}
	}
}

func TestImproveMoveBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	inst := testutil.RandomInstance(rng, testutil.Params{
		MinNodes: 30, MaxNodes: 60,
		MaxCustomers: 10, MaxFacilities: 10,
		MaxCapacity: 3, MaxWeight: 20,
	})
	sol, err := core.SolveCtx(context.Background(), inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ImproveCtx(context.Background(), inst, sol, Options{MaxMoves: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted > 1 {
		t.Fatalf("budget ignored: %d moves", st.Accepted)
	}
}

func TestImproveRejectsInvalidStart(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	inst := testutil.RandomInstance(rng, testutil.Params{
		MinNodes: 10, MaxNodes: 20,
		MaxCustomers: 4, MaxFacilities: 4,
		MaxCapacity: 3, MaxWeight: 10,
	})
	bogus := &data.Solution{Selected: []int{0}, Assignment: make([]int, inst.M()), Objective: -5}
	if _, _, err := ImproveCtx(context.Background(), inst, bogus, Options{}); err == nil {
		t.Fatal("invalid starting solution accepted")
	}
}

// TestImproveCtxCancelledCandidateSearch: a cancellation inside the
// candidate search must surface, not pass for an exhausted neighborhood.
// The only other candidate lies 3·4096 hops away, past the searcher's
// first context checkpoint (one per 4096 pops).
func TestImproveCtxCancelledCandidateSearch(t *testing.T) {
	const n = 3 * 4096
	b := graph.NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	facs := []data.Facility{{Node: 0, Capacity: 1}, {Node: n - 1, Capacity: 1}}
	inst := &data.Instance{G: g, Customers: []int32{0}, Facilities: facs, K: 1}
	sol := &data.Solution{Selected: []int{0}, Assignment: []int{0}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, _, err := ImproveCtx(ctx, inst, sol, Options{}); !errors.Is(err, context.Canceled) || got != sol {
		t.Fatalf("ImproveCtx = %p, %v; want the input solution %p and context.Canceled", got, err, sol)
	}
}
