package mcfs_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"mcfs"
)

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// tinyInstance is small enough for exhaustive enumeration (C(12,5)).
func tinyInstance(t *testing.T) *mcfs.Instance {
	t.Helper()
	g, err := mcfs.GenerateSynthetic(mcfs.SyntheticConfig{N: 80, Alpha: 2.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	pool := mcfs.LargestComponent(g)
	return &mcfs.Instance{
		G:          g,
		Customers:  mcfs.SampleCustomersFrom(pool, 10, rng),
		Facilities: mcfs.SampleFacilitiesFrom(pool, 12, rng, mcfs.UniformCapacity(4)),
		K:          5,
	}
}

// largeInstance is a clustered instance sized so that every heuristic
// needs well over the mid-run deadlines used below. It is built once and
// shared read-only across tests.
var (
	largeOnce sync.Once
	largeInst *mcfs.Instance
	largeErr  error
)

func largeInstance(t *testing.T) *mcfs.Instance {
	t.Helper()
	largeOnce.Do(func() {
		g, err := mcfs.GenerateSynthetic(mcfs.SyntheticConfig{
			N: 6000, Clusters: 10, Alpha: 1.8, Seed: 21,
		})
		if err != nil {
			largeErr = err
			return
		}
		rng := rand.New(rand.NewSource(22))
		pool := mcfs.LargestComponent(g)
		largeInst = &mcfs.Instance{
			G:          g,
			Customers:  mcfs.SampleCustomersFrom(pool, 800, rng),
			Facilities: mcfs.SampleFacilitiesFrom(pool, 1200, rng, mcfs.UniformCapacity(40)),
			K:          30,
		}
	})
	if largeErr != nil {
		t.Fatal(largeErr)
	}
	return largeInst
}

// TestPublicAPICtxPreCancelled: every Ctx entry point must notice an
// already-cancelled context and return ctx.Err() without doing work.
func TestPublicAPICtxPreCancelled(t *testing.T) {
	inst := buildInstance(t, 41)
	base, err := mcfs.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cancelledCtx()

	runs := []struct {
		name string
		run  func() error
	}{
		{"SolveCtx", func() error { sol, err := mcfs.SolveCtx(ctx, inst); mustNilSol(t, "SolveCtx", sol); return err }},
		{"SolveUniformFirstCtx", func() error {
			sol, err := mcfs.SolveUniformFirstCtx(ctx, inst)
			mustNilSol(t, "SolveUniformFirstCtx", sol)
			return err
		}},
		{"SolveHilbertCtx", func() error {
			sol, err := mcfs.SolveHilbertCtx(ctx, inst)
			mustNilSol(t, "SolveHilbertCtx", sol)
			return err
		}},
		{"SolveBRNNCtx", func() error {
			sol, err := mcfs.SolveBRNNCtx(ctx, inst)
			mustNilSol(t, "SolveBRNNCtx", sol)
			return err
		}},
		{"SolveNaiveCtx", func() error {
			sol, err := mcfs.SolveNaiveCtx(ctx, inst, mcfs.WithSeed(3))
			mustNilSol(t, "SolveNaiveCtx", sol)
			return err
		}},
		{"AssignToSelectionCtx", func() error {
			sol, err := mcfs.AssignToSelectionCtx(ctx, inst, base.Selected)
			mustNilSol(t, "AssignToSelectionCtx", sol)
			return err
		}},
		{"SolveExactCtx", func() error { _, err := mcfs.SolveExactCtx(ctx, inst); return err }},
		{"ImproveCtx", func() error {
			sol, _, err := mcfs.ImproveCtx(ctx, inst, base, 0)
			// Local search holds its input as incumbent; a cancelled run
			// keeps it rather than dropping to nil.
			if err != nil && sol == nil {
				t.Error("ImproveCtx: cancelled run dropped the incumbent")
			}
			return err
		}},
		{"NewReallocatorCtx", func() error { _, err := mcfs.NewReallocatorCtx(ctx, inst, 0); return err }},
	}
	for _, r := range runs {
		if err := r.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", r.name, err)
		}
	}
}

func TestPublicAPICtxPreCancelledExhaustive(t *testing.T) {
	inst := tinyInstance(t)
	// Sanity: the instance really is exhaustible when uncancelled.
	if _, err := mcfs.SolveExhaustive(inst, 0); err != nil {
		t.Fatalf("uncancelled exhaustive: %v", err)
	}
	if _, err := mcfs.SolveExhaustiveCtx(cancelledCtx(), inst, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func mustNilSol(t *testing.T, name string, sol *mcfs.Solution) {
	t.Helper()
	if sol != nil {
		t.Errorf("%s: cancelled run returned a solution", name)
	}
}

// TestPublicAPICtxDeterminism: an uncancelled Ctx run must be
// byte-identical to the legacy entry point, and the registry must match
// both — context plumbing may not perturb any tie-break.
func TestPublicAPICtxDeterminism(t *testing.T) {
	inst := buildInstance(t, 42)
	ctx := context.Background()
	type variant struct {
		name  string
		plain func() (*mcfs.Solution, error)
		ctxed func() (*mcfs.Solution, error)
		reg   mcfs.Algorithm
	}
	variants := []variant{
		{"wma",
			func() (*mcfs.Solution, error) { return mcfs.Solve(inst) },
			func() (*mcfs.Solution, error) { return mcfs.SolveCtx(ctx, inst) },
			mcfs.AlgorithmWMA},
		{"uf",
			func() (*mcfs.Solution, error) { return mcfs.SolveUniformFirst(inst) },
			func() (*mcfs.Solution, error) { return mcfs.SolveUniformFirstCtx(ctx, inst) },
			mcfs.AlgorithmUniformFirst},
		{"hilbert",
			func() (*mcfs.Solution, error) { return mcfs.SolveHilbert(inst) },
			func() (*mcfs.Solution, error) { return mcfs.SolveHilbertCtx(ctx, inst) },
			mcfs.AlgorithmHilbert},
		{"naive",
			func() (*mcfs.Solution, error) { return mcfs.SolveNaive(inst, mcfs.WithSeed(7)) },
			func() (*mcfs.Solution, error) { return mcfs.SolveNaiveCtx(ctx, inst, mcfs.WithSeed(7)) },
			mcfs.AlgorithmNaive},
	}
	for _, v := range variants {
		want, err := v.plain()
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		got, err := v.ctxed()
		if err != nil {
			t.Fatalf("%s ctx: %v", v.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: SolveCtx result differs from Solve", v.name)
		}
		var regOpts []mcfs.Option
		if v.name == "naive" {
			regOpts = append(regOpts, mcfs.WithSeed(7))
		}
		reg, _, err := v.reg.Solve(ctx, inst, regOpts...)
		if err != nil {
			t.Fatalf("%s registry: %v", v.name, err)
		}
		if !reflect.DeepEqual(reg, want) {
			t.Errorf("%s: registry result differs from Solve", v.name)
		}
	}

	// BRNN is the slow baseline; compare it on a smaller instance.
	small := tinyInstance(t)
	want, err := mcfs.SolveBRNN(small)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mcfs.SolveBRNNCtx(ctx, small)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("brnn: SolveBRNNCtx result differs from SolveBRNN")
	}

	// AssignToSelection under a fixed selection.
	sel := want.Selected
	wantA, err := mcfs.AssignToSelection(small, sel)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := mcfs.AssignToSelectionCtx(ctx, small, sel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Error("AssignToSelectionCtx result differs from AssignToSelection")
	}
}

// TestPublicAPICtxMidRunDeadline: on an instance far too large to finish
// within the deadline, every heuristic must return promptly with
// context.DeadlineExceeded and no solution.
func TestPublicAPICtxMidRunDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	inst := largeInstance(t)
	const deadline = 10 * time.Millisecond
	// Generous promptness bound: orders of magnitude under the full solve
	// time, loose enough for -race and loaded CI machines.
	const promptness = 5 * time.Second

	solvers := []struct {
		name string
		run  func(ctx context.Context) (*mcfs.Solution, error)
	}{
		{"wma", func(ctx context.Context) (*mcfs.Solution, error) { return mcfs.SolveCtx(ctx, inst) }},
		{"uf", func(ctx context.Context) (*mcfs.Solution, error) { return mcfs.SolveUniformFirstCtx(ctx, inst) }},
		{"hilbert", func(ctx context.Context) (*mcfs.Solution, error) { return mcfs.SolveHilbertCtx(ctx, inst) }},
		{"brnn", func(ctx context.Context) (*mcfs.Solution, error) { return mcfs.SolveBRNNCtx(ctx, inst) }},
		{"naive", func(ctx context.Context) (*mcfs.Solution, error) {
			return mcfs.SolveNaiveCtx(ctx, inst, mcfs.WithSeed(3))
		}},
	}
	timedOut := 0
	for _, s := range solvers {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		sol, err := s.run(ctx)
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			t.Logf("%s finished in %s, under the deadline", s.name, elapsed)
			continue
		}
		timedOut++
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", s.name, err)
		}
		if sol != nil {
			t.Errorf("%s: timed-out run returned a solution", s.name)
		}
		if elapsed > promptness {
			t.Errorf("%s: returned after %s, want < %s", s.name, elapsed, promptness)
		}
	}
	if timedOut == 0 {
		t.Error("every solver finished a 6000-node instance within 10ms; enlarge the fixture")
	}
}

// TestPublicAPITimeBudgetSugar: WithTimeBudget on the legacy entry
// points must behave as a context deadline.
func TestPublicAPITimeBudgetSugar(t *testing.T) {
	inst := buildInstance(t, 43)
	sol, err := mcfs.Solve(inst, mcfs.WithTimeBudget(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if sol != nil {
		t.Fatal("timed-out Solve returned a solution")
	}
}

// TestPublicAPIImproveCtxKeepsIncumbent: a deadline that expires during
// local search keeps the best verified incumbent found so far.
func TestPublicAPIImproveCtxKeepsIncumbent(t *testing.T) {
	inst := buildInstance(t, 44)
	base, err := mcfs.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := mcfs.ImproveCtx(context.Background(), inst, base, 0, mcfs.WithTimeBudget(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if sol == nil {
		t.Fatal("timed-out Improve dropped the incumbent")
	}
	if sol.Objective > base.Objective {
		t.Fatalf("incumbent objective %d worse than input %d", sol.Objective, base.Objective)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatalf("incumbent invalid: %v", err)
	}
}

// TestPublicAPIReallocatorSetContext: a Reallocator survives a cancelled
// operation, which leaves the state it found, and after rebinding a
// live context the next arrival proceeds from that state.
func TestPublicAPIReallocatorSetContext(t *testing.T) {
	inst := buildInstance(t, 45)
	r, err := mcfs.NewReallocator(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	before, err := r.Objective()
	if err != nil {
		t.Fatal(err)
	}

	r.SetContext(cancelledCtx())
	if _, err := r.AddCustomer(inst.Customers[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("AddCustomer under cancelled ctx: err = %v, want context.Canceled", err)
	}

	r.SetContext(context.Background())
	h, err := r.AddCustomer(inst.Customers[0])
	if err != nil {
		t.Fatalf("AddCustomer after rebinding: %v", err)
	}
	after, err := r.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if after < before {
		t.Fatalf("objective decreased after an arrival: %d -> %d", before, after)
	}
	if err := r.RemoveCustomer(h); err != nil {
		t.Fatal(err)
	}
	got, err := r.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if got != before {
		t.Fatalf("objective after add+remove = %d, want %d", got, before)
	}
}

// TestPublicAPINilCtx pins the public nil-ctx contract: every exported
// ctx-taking entry point, and Reallocator.SetContext, treats a nil ctx
// as context.Background() — same objective, same selection.
func TestPublicAPINilCtx(t *testing.T) {
	inst := tinyInstance(t)
	base, err := mcfs.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := mcfs.NewReallocator(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := r0.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context) (names []string, sols []*mcfs.Solution) {
		keep := func(name string) func(*mcfs.Solution, error) {
			return func(sol *mcfs.Solution, err error) {
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				names, sols = append(names, name), append(sols, sol)
			}
		}
		settled := func(r *mcfs.Reallocator, err error) (*mcfs.Solution, error) {
			if err != nil {
				return nil, err
			}
			_, sol, err := r.Solution()
			return sol, err
		}
		keep("SolveCtx")(mcfs.SolveCtx(ctx, inst))
		keep("SolveUniformFirstCtx")(mcfs.SolveUniformFirstCtx(ctx, inst))
		keep("SolveHilbertCtx")(mcfs.SolveHilbertCtx(ctx, inst))
		keep("SolveBRNNCtx")(mcfs.SolveBRNNCtx(ctx, inst))
		keep("SolveNaiveCtx")(mcfs.SolveNaiveCtx(ctx, inst, mcfs.WithSeed(3)))
		keep("SolveExhaustiveCtx")(mcfs.SolveExhaustiveCtx(ctx, inst, 0))
		keep("AssignToSelectionCtx")(mcfs.AssignToSelectionCtx(ctx, inst, base.Selected))
		keep("NewReallocatorCtx")(settled(mcfs.NewReallocatorCtx(ctx, inst, 0)))
		keep("RestoreReallocatorCtx")(settled(mcfs.RestoreReallocatorCtx(ctx, inst, snap, 0)))
		exact, err := mcfs.SolveExactCtx(ctx, inst)
		if err != nil {
			t.Fatalf("SolveExactCtx: %v", err)
		}
		keep("SolveExactCtx")(exact.Solution, nil)
		improved, _, err := mcfs.ImproveCtx(ctx, inst, base, 0)
		keep("ImproveCtx")(improved, err)
		r, err := mcfs.NewReallocator(inst, 0)
		if err == nil {
			r.SetContext(ctx)
			_, err = r.AddCustomer(inst.Customers[0])
		}
		keep("Reallocator.SetContext")(settled(r, err))
		for _, a := range mcfs.Algorithms() {
			sol, _, err := a.Solve(ctx, inst, mcfs.WithSeed(3))
			keep("Algorithm.Solve/"+a.String())(sol, err)
		}
		return names, sols
	}
	names, want := run(context.Background())
	_, got := run(nil)
	for i, name := range names {
		if got[i].Objective != want[i].Objective || !reflect.DeepEqual(got[i].Selected, want[i].Selected) {
			t.Errorf("%s(nil) = %d %v, want %d %v", name, got[i].Objective, got[i].Selected, want[i].Objective, want[i].Selected)
		}
	}
}
