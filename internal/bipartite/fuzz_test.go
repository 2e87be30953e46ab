package bipartite

import (
	"context"
	"math/rand"
	"slices"
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
// materialization, potentials, Theorem-1 pruning, augmentation, and
// removals with their cycle-cancelling repair — against refMinCost, the
// dense successive-shortest-paths reference with no optimizations.
// FindPair calls interleave with removals of customers matched at most
// once, and checkInvariants runs after every step. The engine's final
// matching must cost exactly the reference optimum for the demand
// vector the remaining customers achieved, and a failed FindPair with
// no removal after it must mean the reference cannot place another
// unit for that customer either.
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

		ctx := context.Background()
		mt := New(g, custNodes, facs)
		ids := make([]int, m) // original customer of each matcher index
		for i := range ids {
			ids[i] = i
		}
		demands := make([]int, m)
		lastFailed := -1
		for r := 0; r < rounds; r++ {
			for i := 0; i < mt.M(); i++ {
				if must(mt.FindPairCtx(ctx, i)) {
					demands[ids[i]]++
				} else {
					lastFailed = ids[i]
				}
				checkInvariants(t, mt)
				if rng.Intn(3) != 0 {
					continue
				}
				k := rng.Intn(mt.M())
				if mt.MatchCount(k) > 1 {
					continue
				}
				must(mt.RemoveCustomerCtx(ctx, k))
				ids[k] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				lastFailed = -1 // a freed slot may serve it now
				checkInvariants(t, mt)
				if mt.M() == 0 {
					break
				}
			}
		}

		all := denseDistances(g, custNodes, facs)
		dist := make([][]int64, len(ids))
		left := make([]int, len(ids))
		for i, id := range ids {
			dist[i], left[i] = all[id], demands[id]
		}
		want, ok := refMinCost(dist, caps, left)
		if !ok {
			t.Fatalf("reference cannot satisfy demands %v the engine matched (caps %v, seed %d)",
				left, caps, seed)
		}
		if got := mt.TotalMatchedCost(); got != want {
			t.Fatalf("SSPA cost %d != reference optimum %d (m=%d l=%d caps=%v demands=%v seed=%d)",
				got, want, m, l, caps, left, seed)
		}
		// Completeness: a failure means no augmenting path existed then;
		// infeasibility is monotone in the demand vector, so it must still
		// be infeasible with the final (larger) demands.
		if lastFailed >= 0 {
			bumped := append([]int(nil), left...)
			bumped[slices.Index(ids, lastFailed)]++
			if _, ok := refMinCost(dist, caps, bumped); ok {
				t.Fatalf("FindPair(%d) failed but the reference matches another unit (caps %v demands %v seed %d)",
					lastFailed, caps, left, seed)
			}
		}
	})
}
