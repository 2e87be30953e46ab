package bipartite

import (
	"context"
	"math/rand"
	"testing"

	"mcfs/internal/data"
)

// TestNegativeArcHandlingExercised drives enough randomized scenarios
// that the transient negative-reduced-cost path (label-correcting
// reinsertion) is actually exercised, and verifies via the shared
// invariant checker that the matching stays structurally sound when it
// happens. If the negative-arc machinery were unreachable this test
// would only log, not fail — optimality under reinsertion is covered by
// the reference cross-checks in matcher_test.go.
func TestNegativeArcHandlingExercised(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	totalReins, totalRuns, totalNeg := 0, 0, 0
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
		for step := 0; step < 3*m; step++ {
			must(mt.FindPairCtx(context.Background(), rng.Intn(m)))
		}
		checkInvariants(t, mt)
		st := mt.Stats()
		totalReins += st.Reinsertions
		totalNeg += st.NegArcEvents
		totalRuns += st.DijkstraRuns
	}
	t.Logf("reinsertions=%d negarcs=%d over %d inner searches", totalReins, totalNeg, totalRuns)
}
