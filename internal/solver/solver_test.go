package solver

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"mcfs/internal/data"
	"mcfs/internal/graph"
	"mcfs/internal/testutil"
)

func smallParams() testutil.Params {
	return testutil.Params{
		MinNodes: 6, MaxNodes: 30,
		MaxCustomers: 6, MaxFacilities: 6,
		MaxCapacity: 3, MaxWeight: 20,
	}
}

func TestExhaustiveTinyKnownOptimum(t *testing.T) {
	// Path 0-1-2-3-4, customers at 0 and 4, facilities at 0,2,4 (cap 1),
	// k=2: optimal picks facilities at 0 and 4 with cost 0.
	b := graph.NewBuilder(5, false)
	for i := 0; i < 4; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, _ := b.Build()
	inst := &data.Instance{
		G:         g,
		Customers: []int32{0, 4},
		Facilities: []data.Facility{
			{Node: 0, Capacity: 1}, {Node: 2, Capacity: 1}, {Node: 4, Capacity: 1},
		},
		K: 2,
	}
	sol, err := ExhaustiveCtx(context.Background(), inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 0 {
		t.Fatalf("objective = %d, want 0", sol.Objective)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustiveCapacityForcesSplit(t *testing.T) {
	// Both customers nearest to facility 1, but capacity 1 forces one to
	// facility 3.
	b := graph.NewBuilder(5, false)
	for i := 0; i < 4; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, _ := b.Build()
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{1, 1},
		Facilities: []data.Facility{{Node: 1, Capacity: 1}, {Node: 3, Capacity: 1}},
		K:          2,
	}
	sol, err := ExhaustiveCtx(context.Background(), inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 2 {
		t.Fatalf("objective = %d, want 2 (one customer travels to node 3)", sol.Objective)
	}
}

func TestExhaustiveInfeasible(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1, 1)
	g, _ := b.Build()
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0, 1},
		Facilities: []data.Facility{{Node: 0, Capacity: 1}},
		K:          1,
	}
	if _, err := ExhaustiveCtx(context.Background(), inst, 0); !errors.Is(err, data.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestExhaustiveTooLarge(t *testing.T) {
	b := graph.NewBuilder(40, false)
	for i := 0; i < 39; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, _ := b.Build()
	inst := &data.Instance{G: g, Customers: []int32{0}, K: 20}
	for v := 0; v < 40; v++ {
		inst.Facilities = append(inst.Facilities, data.Facility{Node: int32(v), Capacity: 1})
	}
	if _, err := ExhaustiveCtx(context.Background(), inst, 1000); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestExhaustiveEmptyCustomers(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1, 1)
	g, _ := b.Build()
	inst := &data.Instance{G: g, Facilities: []data.Facility{{Node: 0, Capacity: 1}}, K: 1}
	sol, err := ExhaustiveCtx(context.Background(), inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 0 || len(sol.Assignment) != 0 {
		t.Fatalf("empty instance solution: %+v", sol)
	}
}

func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		inst := testutil.RandomInstance(rng, smallParams())
		want, err := ExhaustiveCtx(context.Background(), inst, 0)
		if err != nil {
			t.Fatalf("trial %d: exhaustive: %v", trial, err)
		}
		res, err := BranchAndBoundCtx(context.Background(), inst, Options{})
		if err != nil {
			t.Fatalf("trial %d: bnb: %v", trial, err)
		}
		if !res.Optimal {
			t.Fatalf("trial %d: bnb not optimal without limits", trial)
		}
		if res.Solution.Objective != want.Objective {
			t.Fatalf("trial %d: bnb objective %d != exhaustive %d (m=%d l=%d k=%d)",
				trial, res.Solution.Objective, want.Objective, inst.M(), inst.L(), inst.K)
		}
		if _, err := inst.CheckSolution(res.Solution); err != nil {
			t.Fatalf("trial %d: bnb solution invalid: %v", trial, err)
		}
	}
}

func TestBranchAndBoundMultiComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := smallParams()
	p.Components = 2
	p.MinNodes = 10
	for trial := 0; trial < 20; trial++ {
		inst := testutil.RandomInstance(rng, p)
		want, err := ExhaustiveCtx(context.Background(), inst, 0)
		if err != nil {
			t.Fatalf("trial %d: exhaustive: %v", trial, err)
		}
		res, err := BranchAndBoundCtx(context.Background(), inst, Options{})
		if err != nil {
			t.Fatalf("trial %d: bnb: %v", trial, err)
		}
		if res.Solution.Objective != want.Objective {
			t.Fatalf("trial %d: bnb %d != exhaustive %d", trial, res.Solution.Objective, want.Objective)
		}
	}
}

func TestBranchAndBoundInfeasible(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1, 1)
	g, _ := b.Build()
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0, 1, 0},
		Facilities: []data.Facility{{Node: 0, Capacity: 1}, {Node: 1, Capacity: 1}},
		K:          2,
	}
	if _, err := BranchAndBoundCtx(context.Background(), inst, Options{}); !errors.Is(err, data.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestBranchAndBoundKCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst := testutil.RandomInstance(rng, smallParams())
	inst.K = inst.L() // trivial selection path
	res, err := BranchAndBoundCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(res.Solution); err != nil {
		t.Fatal(err)
	}
}

func TestBranchAndBoundTimeout(t *testing.T) {
	// A larger instance with a vanishing time budget must either finish
	// instantly or report ErrTimeout with a best-so-far.
	rng := rand.New(rand.NewSource(24))
	p := testutil.Params{
		MinNodes: 60, MaxNodes: 80,
		MaxCustomers: 20, MaxFacilities: 18,
		MaxCapacity: 3, MaxWeight: 30,
	}
	inst := testutil.RandomInstance(rng, p)
	res, err := BranchAndBoundCtx(context.Background(), inst, Options{TimeBudget: 1 * time.Nanosecond})
	if err == nil {
		if !res.Optimal {
			t.Fatal("no error but not optimal")
		}
		return // finished before the first deadline check: acceptable
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestBranchAndBoundNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	p := smallParams()
	p.MaxFacilities = 8
	p.MaxCustomers = 8
	var limited bool
	for trial := 0; trial < 10 && !limited; trial++ {
		inst := testutil.RandomInstance(rng, p)
		res, err := BranchAndBoundCtx(context.Background(), inst, Options{NodeLimit: 2})
		if err != nil {
			if res == nil {
				continue // no incumbent found before the limit — also fine
			}
			if res.Optimal {
				t.Fatal("limited result claims optimality")
			}
			limited = true
			if res.Solution != nil {
				if _, cerr := inst.CheckSolution(res.Solution); cerr != nil {
					t.Fatalf("best-so-far invalid: %v", cerr)
				}
			}
		}
	}
}

// TestFeasiblePredicateMatchesExhaustive: the Feasible() pre-check must
// agree exactly with whether an optimal solution exists, across random
// instances including deliberately under-provisioned ones.
func TestFeasiblePredicateMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 40; trial++ {
		inst := testutil.RandomInstance(rng, smallParams())
		// Half the trials get sabotaged budgets or capacities.
		switch trial % 4 {
		case 1:
			inst.K = rng.Intn(inst.K + 1) // possibly too small
		case 2:
			for j := range inst.Facilities {
				inst.Facilities[j].Capacity = rng.Intn(2)
			}
		case 3:
			inst.K = 0
		}
		feasible, _ := inst.Feasible()
		_, err := ExhaustiveCtx(context.Background(), inst, 0)
		solvable := err == nil
		if errors.Is(err, ErrTooLarge) {
			continue
		}
		if feasible != solvable {
			t.Fatalf("trial %d: Feasible=%v but exhaustive solvable=%v (err=%v, m=%d l=%d k=%d)",
				trial, feasible, solvable, err, inst.M(), inst.L(), inst.K)
		}
	}
}
