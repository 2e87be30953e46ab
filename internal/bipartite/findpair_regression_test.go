package bipartite

import (
	"context"
	"errors"
	"math/rand"
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
// during the lazily-created searcher's initial expansion stalls it
// (PeekDist() == Inf), and FindPairCtx used to report (false, nil) —
// "customer unservable" — which AssignToSelection then converts to
// ErrInfeasible. The context error must surface instead, and the same
// matcher must then find the match under a live context.
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
	if matched, err := mt.FindPairCtx(context.Background(), 0); err != nil || !matched {
		t.Fatalf("FindPairCtx after the cancellation = (%v, %v), want (true, nil)", matched, err)
	}
	checkInvariants(t, mt)
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
// a searcher stalled by a cancellation propagates the recorded context
// error, not the invariant error.
func TestMaterializeFailurePropagatesSearcherError(t *testing.T) {
	mt := longLineMatcher(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mt.ctx = ctx
	s := mt.searcher(0) // initial advance crosses a poll and stalls
	if s.Err() == nil {
		t.Fatal("searcher survived a cancelled initial expansion")
	}
	if err := mt.materializeFailure(0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelledFindPairResumes cancels an arrival's FindPairCtx after
// every number of context polls, on small random networks with a tail
// of 3×searcherCheckEvery nodes leading to a far facility, so a
// searcher that advances past its last nearby facility crosses polls
// mid-expansion. After each cancellation the same matcher carries on
// under a live context: its invariants must hold and its cost must
// equal a fresh matcher's. The test requires that some cancellation
// stalled a resident customer's searcher, the case where a searcher
// that stayed exhausted would hide a customer's further edges from the
// Theorem-1 threshold and let an augmenting path come out suboptimal.
func TestCancelledFindPairResumes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bg := context.Background()
	residentStalls := 0
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(12)
		tail := 3 * searcherCheckEvery
		b := graph.NewBuilder(n+tail, false)
		for v := 1; v < n; v++ {
			b.AddEdge(int32(rng.Intn(v)), int32(v), 1+rng.Int63n(20))
		}
		b.AddEdge(int32(rng.Intn(n)), int32(n), 1)
		for v := n + 1; v < n+tail; v++ {
			b.AddEdge(int32(v-1), int32(v), 1)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := 2 + rng.Intn(4)
		perm := rng.Perm(n)
		facs := []data.Facility{{Node: int32(n + tail - 1), Capacity: m + 1}}
		for _, v := range perm[:1+rng.Intn(min(3, n-1))] {
			facs = append(facs, data.Facility{Node: int32(v), Capacity: 1 + rng.Intn(2)})
		}
		custNodes := make([]int32, m)
		for i := range custNodes {
			custNodes[i] = int32(rng.Intn(n))
		}
		arrival := int32(rng.Intn(n))
		residents := func() *Matcher {
			mt := New(g, custNodes, facs)
			for i := range custNodes {
				if !must(mt.FindPairCtx(bg, i)) {
					t.Fatalf("trial %d: resident %d unmatched", trial, i)
				}
			}
			return mt
		}
		fresh := New(g, append(custNodes[:m:m], arrival), facs)
		for i := 0; i <= m; i++ {
			must(fresh.FindPairCtx(bg, i))
		}
		for polls := 0; ; polls++ {
			mt := residents()
			idx := mt.AddCustomer(arrival)
			if _, err := mt.FindPairCtx(&countdownCtx{Context: bg, remaining: polls}, idx); err == nil {
				break // the countdown outlasted the arrival
			} else if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d polls %d: err = %v, want context.Canceled", trial, polls, err)
			}
			checkInvariants(t, mt)
			for i := 0; i < m; i++ {
				if mt.searchers[i].Err() != nil {
					residentStalls++
					break
				}
			}
			if ok, err := mt.FindPairCtx(bg, idx); err != nil || !ok {
				t.Fatalf("trial %d polls %d: resumed arrival = (%v, %v), want (true, nil)", trial, polls, ok, err)
			}
			checkInvariants(t, mt)
			if got, want := mt.TotalMatchedCost(), fresh.TotalMatchedCost(); got != want {
				t.Fatalf("trial %d polls %d: resumed cost %d, fresh matcher %d", trial, polls, got, want)
			}
		}
	}
	if residentStalls == 0 {
		t.Fatal("no cancellation stalled a resident's searcher; the test proves nothing")
	}
	t.Logf("%d cancellations stalled a resident's searcher", residentStalls)
}
