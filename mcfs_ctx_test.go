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

// TestPublicAPICtxPreCancelled: every Ctx entry point and every
// algorithm must notice an already-cancelled context and return
// ctx.Err() without doing work.
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
		{"AssignToSelectionCtx", func() error {
			sol, err := mcfs.AssignToSelectionCtx(ctx, inst, base.Selected)
			mustNilSol(t, "AssignToSelectionCtx", sol)
			return err
		}},
		{"SolveExactCtx", func() error { _, err := mcfs.SolveExactCtx(ctx, inst); return err }},
		{"ImproveCtx", func() error {
			sol, _, err := mcfs.ImproveCtx(ctx, inst, base)
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
	for _, a := range mcfs.Algorithms() {
		if a == mcfs.AlgorithmExhaustive {
			continue // too large to enumerate; see TestPublicAPICtxPreCancelledExhaustive
		}
		sol, _, err := a.Solve(ctx, inst, mcfs.WithSeed(3))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", a, err)
		}
		if a != mcfs.AlgorithmExact {
			mustNilSol(t, a.String(), sol)
		}
	}
}

func TestPublicAPICtxPreCancelledExhaustive(t *testing.T) {
	inst := tinyInstance(t)
	// Sanity: the instance really is exhaustible when uncancelled.
	if _, _, err := mcfs.AlgorithmExhaustive.Solve(context.Background(), inst); err != nil {
		t.Fatalf("uncancelled exhaustive: %v", err)
	}
	if _, _, err := mcfs.AlgorithmExhaustive.Solve(cancelledCtx(), inst); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func mustNilSol(t *testing.T, name string, sol *mcfs.Solution) {
	t.Helper()
	if sol != nil {
		t.Errorf("%s: cancelled run returned a solution", name)
	}
}

// TestPublicAPICtxDeterminism: an uncancelled run under a live deadline
// must be byte-identical to a run under context.Background(), through
// every registry entry and the Ctx entry points — context plumbing may
// not perturb any tie-break.
func TestPublicAPICtxDeterminism(t *testing.T) {
	inst := buildInstance(t, 42)
	// BRNN is the slow baseline, and exhaustive and exact enumerate;
	// compare them on a smaller instance.
	small := tinyInstance(t)
	live, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()

	wma, err := mcfs.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mcfs.SolveCtx(live, inst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wma) {
		t.Error("wma: SolveCtx result differs from Solve")
	}
	for _, a := range mcfs.Algorithms() {
		in := inst
		switch a {
		case mcfs.AlgorithmBRNN, mcfs.AlgorithmExact, mcfs.AlgorithmExhaustive:
			in = small
		}
		want, _, err := a.Solve(context.Background(), in, mcfs.WithSeed(7))
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		got, _, err := a.Solve(live, in, mcfs.WithSeed(7))
		if err != nil {
			t.Fatalf("%s under a live deadline: %v", a, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result under a live deadline differs from Background's", a)
		}
		if a == mcfs.AlgorithmWMA && !reflect.DeepEqual(got, wma) {
			t.Error("wma: registry result differs from Solve")
		}
	}

	// AssignToSelection under a fixed selection.
	sel := wma.Selected
	wantA, err := mcfs.AssignToSelection(inst, sel)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := mcfs.AssignToSelectionCtx(live, inst, sel)
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

	timedOut := 0
	for _, a := range []mcfs.Algorithm{mcfs.AlgorithmWMA, mcfs.AlgorithmUniformFirst, mcfs.AlgorithmHilbert, mcfs.AlgorithmBRNN, mcfs.AlgorithmNaive} {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		sol, _, err := a.Solve(ctx, inst, mcfs.WithSeed(3))
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			t.Logf("%s finished in %s, under the deadline", a, elapsed)
			continue
		}
		timedOut++
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", a, err)
		}
		if sol != nil {
			t.Errorf("%s: timed-out run returned a solution", a)
		}
		if elapsed > promptness {
			t.Errorf("%s: returned after %s, want < %s", a, elapsed, promptness)
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
	sol, _, err := mcfs.ImproveCtx(context.Background(), inst, base, mcfs.WithTimeBudget(time.Nanosecond))
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
		keep("AssignToSelectionCtx")(mcfs.AssignToSelectionCtx(ctx, inst, base.Selected))
		keep("NewReallocatorCtx")(settled(mcfs.NewReallocatorCtx(ctx, inst, 0)))
		keep("RestoreReallocatorCtx")(settled(mcfs.RestoreReallocatorCtx(ctx, inst, snap, 0)))
		exact, err := mcfs.SolveExactCtx(ctx, inst)
		if err != nil {
			t.Fatalf("SolveExactCtx: %v", err)
		}
		keep("SolveExactCtx")(exact.Solution, nil)
		improved, _, err := mcfs.ImproveCtx(ctx, inst, base)
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
