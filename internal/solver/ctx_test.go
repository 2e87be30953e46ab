package solver

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"mcfs/internal/testutil"
)

func TestExhaustiveCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inst := testutil.RandomInstance(rng, smallParams())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExhaustiveCtx(ctx, inst)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExhaustiveCtxBackgroundMatches: a run under a live cancellable ctx
// matches a Background run, and both reach the branch-and-bound optimum.
func TestExhaustiveCtxBackgroundMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for trial := 0; trial < 10; trial++ {
		inst := testutil.RandomInstance(rng, smallParams())
		want, err := ExhaustiveCtx(context.Background(), inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := ExhaustiveCtx(live, inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bnb, err := BranchAndBoundCtx(context.Background(), inst, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Objective != want.Objective || bnb.Solution.Objective != want.Objective {
			t.Fatalf("trial %d: live ctx %d, Background %d, branch and bound %d",
				trial, got.Objective, want.Objective, bnb.Solution.Objective)
		}
	}
}

func TestBranchAndBoundTimeoutMatchesBothSentinels(t *testing.T) {
	// A timed-out run must satisfy errors.Is for ErrTimeout AND for
	// context.DeadlineExceeded, so callers can use either idiom.
	rng := rand.New(rand.NewSource(33))
	p := testutil.Params{
		MinNodes: 60, MaxNodes: 80,
		MaxCustomers: 20, MaxFacilities: 18,
		MaxCapacity: 3, MaxWeight: 30,
	}
	var timedOut bool
	for trial := 0; trial < 20 && !timedOut; trial++ {
		inst := testutil.RandomInstance(rng, p)
		_, err := BranchAndBoundCtx(context.Background(), inst, Options{TimeBudget: time.Nanosecond})
		if err == nil {
			continue // finished before the first deadline check
		}
		timedOut = true
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	}
	if !timedOut {
		t.Skip("every trial finished before the deadline check")
	}
}

func TestBranchAndBoundCtxCancelReturnsIncumbent(t *testing.T) {
	// Cancel mid-search: when the search is slow enough to notice the
	// cancellation, the best verified incumbent must come back alongside
	// ctx.Err(), with Optimal unset.
	rng := rand.New(rand.NewSource(34))
	p := testutil.Params{
		MinNodes: 80, MaxNodes: 100,
		MaxCustomers: 25, MaxFacilities: 20,
		MaxCapacity: 3, MaxWeight: 30,
	}
	var observed bool
	for trial := 0; trial < 20 && !observed; trial++ {
		inst := testutil.RandomInstance(rng, p)
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(2*time.Millisecond, cancel)
		res, err := BranchAndBoundCtx(ctx, inst, Options{})
		timer.Stop()
		cancel()
		if err == nil {
			continue // search finished before the cancel landed
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
		}
		if res == nil || res.Solution == nil {
			continue // cancelled before the warm start produced an incumbent
		}
		observed = true
		if res.Optimal {
			t.Fatalf("trial %d: cancelled result claims optimality", trial)
		}
		if _, cerr := inst.CheckSolution(res.Solution); cerr != nil {
			t.Fatalf("trial %d: incumbent invalid: %v", trial, cerr)
		}
	}
	if !observed {
		t.Skip("no trial was cancelled with an incumbent in hand")
	}
}

// TestBranchAndBoundCtxBackgroundMatches: a run under a live cancellable
// ctx (non-nil Done) explores the same tree as a Background run.
func TestBranchAndBoundCtxBackgroundMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for trial := 0; trial < 10; trial++ {
		inst := testutil.RandomInstance(rng, smallParams())
		want, err := BranchAndBoundCtx(context.Background(), inst, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := BranchAndBoundCtx(live, inst, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Solution.Objective != want.Solution.Objective || got.Nodes != want.Nodes {
			t.Fatalf("trial %d: live ctx (obj=%d nodes=%d) != Background (obj=%d nodes=%d)",
				trial, got.Solution.Objective, got.Nodes, want.Solution.Objective, want.Nodes)
		}
	}
}
