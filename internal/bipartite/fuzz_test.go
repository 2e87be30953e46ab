package bipartite

import (
	"context"
	"math/rand"
	"testing"

	"mcfs/internal/data"
)

// fuzzMod reduces a raw fuzz integer into [0, m) without overflowing on
// MinInt64 (whose negation is itself).
func fuzzMod(raw, m int64) int64 {
	v := raw % m
	if v < 0 {
		v += m
	}
	return v
}

// FuzzMatcher cross-checks the full SSPA engine — lazy edge
// materialization, potentials, Theorem-1 pruning, augmentation — against
// refMinCost, the dense successive-shortest-paths reference with no
// optimizations. For any interleaving of FindPair calls the engine's
// matching must cost exactly the reference optimum for the demand vector
// it achieved, and a failed FindPair must mean the reference cannot
// place another unit for that customer either.
func FuzzMatcher(f *testing.F) {
	f.Add(int64(1), int64(3), int64(3), int64(2), int64(2))
	f.Add(int64(42), int64(1), int64(6), int64(1), int64(3))
	f.Add(int64(7), int64(6), int64(2), int64(3), int64(1))
	f.Add(int64(-99), int64(4), int64(4), int64(2), int64(2))
	f.Add(int64(123456789), int64(5), int64(5), int64(1), int64(3))
	f.Fuzz(func(t *testing.T, seed, mRaw, lRaw, capRaw, roundsRaw int64) {
		m := 1 + int(fuzzMod(mRaw, 6))
		l := 1 + int(fuzzMod(lRaw, 6))
		maxCap := 1 + int(fuzzMod(capRaw, 3))
		rounds := 1 + int(fuzzMod(roundsRaw, 3))

		rng := rand.New(rand.NewSource(seed))
		n := m + l + 4 + rng.Intn(28)
		g := randomNetwork(rng, n)
		perm := rng.Perm(n)
		custNodes := make([]int32, m)
		for i := range custNodes {
			custNodes[i] = int32(perm[i])
		}
		facs := make([]data.Facility, l)
		caps := make([]int, l)
		for j := range facs {
			caps[j] = 1 + rng.Intn(maxCap)
			facs[j] = data.Facility{Node: int32(perm[m+j]), Capacity: caps[j]}
		}

		mt := New(g, custNodes, facs)
		demands := make([]int, m)
		lastFailed := -1
		for r := 0; r < rounds; r++ {
			for i := 0; i < m; i++ {
				if must(mt.FindPairCtx(context.Background(), i)) {
					demands[i]++
				} else {
					lastFailed = i
				}
			}
		}
		checkInvariants(t, mt)

		dist := denseDistances(g, custNodes, facs)
		want, ok := refMinCost(dist, caps, demands)
		if !ok {
			t.Fatalf("reference cannot satisfy demands %v the engine matched (caps %v, seed %d)",
				demands, caps, seed)
		}
		if got := mt.TotalMatchedCost(); got != want {
			t.Fatalf("SSPA cost %d != reference optimum %d (m=%d l=%d caps=%v demands=%v seed=%d)",
				got, want, m, l, caps, demands, seed)
		}
		// Completeness: a failure means no augmenting path existed then;
		// infeasibility is monotone in the demand vector, so it must still
		// be infeasible with the final (larger) demands.
		if lastFailed >= 0 {
			bumped := append([]int(nil), demands...)
			bumped[lastFailed]++
			if _, ok := refMinCost(dist, caps, bumped); ok {
				t.Fatalf("FindPair(%d) failed but the reference matches another unit (caps %v demands %v seed %d)",
					lastFailed, caps, demands, seed)
			}
		}
	})
}
