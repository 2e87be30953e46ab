package bipartite

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"mcfs/internal/data"
)

// TestReducedCostInvariantRandomized drives 1,500 random scenarios,
// arrivals (AddCustomer) interleaved with FindPairCtx calls and a third
// of them in exhaustive mode, and checks after every call the facts
// that make each inner search plain Dijkstra (checkReducedCosts via
// checkInvariants). A breach would also surface as materialize's
// invariant error, which must() turns into a panic.
func TestReducedCostInvariantRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	for trial := 0; trial < 1500; trial++ {
		m := 1 + rng.Intn(8)
		l := 1 + rng.Intn(8)
		n := m + l + 5 + rng.Intn(50)
		g := randomNetwork(rng, n)
		perm := rng.Perm(n)
		custNodes := make([]int32, m)
		for i := range custNodes {
			custNodes[i] = int32(perm[i])
		}
		facs := make([]data.Facility, l)
		for j := range facs {
			facs[j] = data.Facility{Node: int32(perm[m+j]), Capacity: 1 + rng.Intn(4)}
		}
		mt := New(g, custNodes, facs)
		mt.SetExhaustive(trial%3 == 0)
		for step := 0; step < 3*m; step++ {
			if rng.Intn(4) == 0 {
				mt.AddCustomer(int32(rng.Intn(n)))
			}
			must(mt.FindPairCtx(ctx, rng.Intn(mt.M())))
			checkInvariants(t, mt)
		}
	}
}

// TestNegativeFreshReducedCostIsInvariantBreach forces the state the
// invariant rules out: a customer whose potential exceeds its next
// edge's weight, so the edge would materialize with a negative reduced
// cost. FindPairCtx must report an invariant breach, not a matching.
func TestNegativeFreshReducedCostIsInvariantBreach(t *testing.T) {
	mt := ctxTestMatcher(t)
	mt.pot[mt.L()] = mt.nnDist(0) + 1 // customer 0's potential past its next edge
	matched, err := mt.FindPairCtx(context.Background(), 0)
	if matched {
		t.Fatal("FindPairCtx reported a match over a negative fresh reduced cost")
	}
	if err == nil || !strings.Contains(err.Error(), "invariant breach") {
		t.Fatalf("err = %v, want an invariant-breach error", err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("invariant breach misclassified as a context error: %v", err)
	}
	if mt.MatchCount(0) != 0 || mt.TotalMatchedCost() != 0 || mt.Stats().EdgesMaterialized != 0 {
		t.Fatalf("breach left MatchCount %d, cost %d, %d edges; want all 0",
			mt.MatchCount(0), mt.TotalMatchedCost(), mt.Stats().EdgesMaterialized)
	}
}
