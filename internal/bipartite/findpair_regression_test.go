package bipartite

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// searcherCheckEvery mirrors graph's unexported checkEvery: the number
// of heap pops between context polls inside a network search. The line
// graphs below exceed it so a cancellation can strike mid-expansion.
const searcherCheckEvery = 4096

// longLineMatcher builds a matcher over a path graph long enough that
// the customer's initial searcher expansion crosses at least one
// context poll before reaching the only candidate at the far end.
func longLineMatcher(t *testing.T) *Matcher {
	t.Helper()
	n := 3 * searcherCheckEvery
	b := graph.NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	facs := []data.Facility{{Node: int32(n - 1), Capacity: 1}}
	return New(g, []int32{0}, facs)
}

// countdownCtx reports nil from Err for a fixed number of calls, then
// context.Canceled — a deterministic stand-in for a context cancelled
// concurrently, mid-search.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.Canceled
}

// TestFindPairCtxCancellationIsNotInfeasibility is the regression test
// for the cancellation-masquerade bug: a cancellation that strikes
// during the lazily-created searcher's initial expansion poisons it
// (PeekDist() == Inf), and FindPairCtx used to report (false, nil) —
// "customer unservable" — which AssignToSelection then converts to
// ErrInfeasible. The context error must surface instead.
func TestFindPairCtxCancellationIsNotInfeasibility(t *testing.T) {
	mt := longLineMatcher(t)
	// One Err() call is FindPairCtx's own top-of-loop checkpoint; the
	// next poll happens searcherCheckEvery pops into the searcher's
	// initial advance, well before the far-end candidate is reached.
	ctx := &countdownCtx{Context: context.Background(), remaining: 1}
	matched, err := mt.FindPairCtx(ctx, 0)
	if matched {
		t.Fatal("FindPairCtx reported a match under a mid-search cancellation")
	}
	if err == nil {
		t.Fatal("FindPairCtx returned (false, nil): cancellation reported as infeasibility")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFindPairCtxUncancelledLineMatches sanity-checks the same instance
// without cancellation: the far-end facility is found.
func TestFindPairCtxUncancelledLineMatches(t *testing.T) {
	mt := longLineMatcher(t)
	matched, err := mt.FindPairCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !matched {
		t.Fatal("FindPairCtx found no match on a connected line")
	}
}

// TestMaterializeFailureInvariant is the regression test for the
// infinite-spin hardening: when materialize fails although the searcher
// recorded no cancellation, the retry loop used to re-run shortestPath
// with unchanged state forever. The failure must classify as an
// explicit invariant error instead.
func TestMaterializeFailureInvariant(t *testing.T) {
	mt := ctxTestMatcher(t)
	// Exhaust customer 0's searcher: the graph has two candidates, so
	// the third materialization fails with no error recorded.
	for mt.materialize(0) == nil {
	}
	if serr := mt.searchers[0].Err(); serr != nil {
		t.Fatalf("exhausted searcher recorded error %v, want nil", serr)
	}
	err := mt.materializeFailure(0)
	if err == nil {
		t.Fatal("materializeFailure returned nil for an exhausted, uncancelled searcher")
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("invariant breach misclassified as a context error: %v", err)
	}
	if !strings.Contains(err.Error(), "invariant") {
		t.Fatalf("err = %v, want an explicit invariant-breach error", err)
	}
}

// TestMaterializeFailurePropagatesSearcherError pins the other branch:
// a searcher poisoned by cancellation propagates the recorded context
// error, not the invariant error.
func TestMaterializeFailurePropagatesSearcherError(t *testing.T) {
	mt := longLineMatcher(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mt.ctx = ctx
	s := mt.searcher(0) // initial advance crosses a poll and poisons
	if s.Err() == nil {
		t.Fatal("searcher survived a cancelled initial expansion")
	}
	if err := mt.materializeFailure(0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
