package core_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mcfs/internal/baseline"
	"mcfs/internal/core"
	"mcfs/internal/solver"
	"mcfs/internal/testutil"
)

// TestSolvePathsConcurrent runs every solve path many times in parallel
// against ONE shared *data.Instance (and therefore one shared
// *graph.Graph) and asserts each call reproduces its serial result.
// This is the invariant the parallel bench harness depends on: solvers
// treat the instance as immutable. Run under -race.
func TestSolvePathsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Small enough for branch & bound to finish well inside its budget;
	// the race coverage comes from the concurrency, not the size.
	inst := testutil.RandomInstance(rng, testutil.Params{
		MinNodes: 40, MaxNodes: 60,
		MaxCustomers: 12, MaxFacilities: 12, MaxCapacity: 3, MaxWeight: 30,
	})

	type path struct {
		name string
		run  func() (int64, error)
	}
	paths := []path{
		{"wma", func() (int64, error) {
			sol, err := core.SolveCtx(context.Background(), inst, core.Options{})
			if err != nil {
				return 0, err
			}
			return sol.Objective, nil
		}},
		{"wma-uf", func() (int64, error) {
			sol, err := core.SolveUniformFirstCtx(context.Background(), inst, core.Options{})
			if err != nil {
				return 0, err
			}
			return sol.Objective, nil
		}},
		{"naive", func() (int64, error) {
			sol, err := baseline.NaiveCtx(context.Background(), inst, 5)
			if err != nil {
				return 0, err
			}
			return sol.Objective, nil
		}},
		{"hilbert", func() (int64, error) {
			sol, err := baseline.HilbertCtx(context.Background(), inst)
			if err != nil {
				return 0, err
			}
			return sol.Objective, nil
		}},
		{"brnn", func() (int64, error) {
			sol, err := baseline.BRNNCtx(context.Background(), inst)
			if err != nil {
				return 0, err
			}
			return sol.Objective, nil
		}},
		{"exact", func() (int64, error) {
			res, err := solver.BranchAndBoundCtx(context.Background(), inst, solver.Options{TimeBudget: 30 * time.Second})
			if err != nil {
				return 0, err
			}
			return res.Solution.Objective, nil
		}},
	}

	// Serial reference pass.
	want := make(map[string]int64, len(paths))
	for _, p := range paths {
		obj, err := p.run()
		if err != nil {
			t.Fatalf("serial %s: %v", p.name, err)
		}
		want[p.name] = obj
	}

	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(paths))
	for r := 0; r < rounds; r++ {
		for _, p := range paths {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				obj, err := p.run()
				if err != nil {
					errs <- err
					return
				}
				if obj != want[p.name] {
					t.Errorf("concurrent %s: objective = %d, want %d (shared instance mutated?)",
						p.name, obj, want[p.name])
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The shared instance still verifies its own solutions afterwards.
	sol, err := core.SolveCtx(context.Background(), inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatalf("instance corrupted after concurrent solves: %v", err)
	}
}

// TestEvalObjectiveConcurrent hammers the read-only evaluation helpers
// on a shared instance+solution; run under -race.
func TestEvalObjectiveConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := testutil.RandomInstance(rng, testutil.Params{
		MinNodes: 40, MaxNodes: 80,
		MaxCustomers: 15, MaxFacilities: 20, MaxCapacity: 3, MaxWeight: 20,
	})
	sol, err := core.SolveCtx(context.Background(), inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := inst.CheckSolution(sol); err != nil {
				t.Errorf("CheckSolution: %v", err)
			}
			if ok, _ := inst.Feasible(); !ok {
				t.Error("Feasible flipped on shared instance")
			}
		}()
	}
	wg.Wait()
}
