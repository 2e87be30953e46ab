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
// once, and checkInvariants runs after every step, checkMoved around
// every call. The engine's final
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
				before := matchedSets(mt)
				if must(mt.FindPairCtx(ctx, i)) {
					demands[ids[i]]++
				} else {
					lastFailed = ids[i]
				}
				checkMoved(t, mt, before, -1)
				checkInvariants(t, mt)
				if rng.Intn(3) != 0 {
					continue
				}
				k := rng.Intn(mt.M())
				if mt.MatchCount(k) > 1 {
					continue
				}
				before = matchedSets(mt)
				must(mt.RemoveCustomerCtx(ctx, k))
				checkMoved(t, mt, before, k)
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

// matchedSets returns every customer's matched facilities, sorted.
func matchedSets(mt *Matcher) [][]int {
	out := make([][]int, mt.M())
	for i := range out {
		out[i], _ = mt.Matches(i)
		slices.Sort(out[i])
	}
	return out
}

// checkMoved checks Moved against a diff of every customer's matched
// facilities across one FindPairCtx or RemoveCustomerCtx call. before
// is matchedSets from before the call; removed is the customer index the
// call removed, which the last customer took, or -1. The customers Moved
// reports, as indexes after the call, must be exactly those whose
// matched facilities changed, each once, so a call that changed nothing
// reports nobody.
func checkMoved(t *testing.T, mt *Matcher, before [][]int, removed int) {
	t.Helper()
	var changed []int
	for i, facs := range matchedSets(mt) {
		was := i
		if i == removed {
			was = len(before) - 1
		}
		if !slices.Equal(before[was], facs) {
			changed = append(changed, i)
		}
	}
	moved := mt.Moved(nil)
	slices.Sort(moved)
	if !slices.Equal(moved, changed) {
		t.Fatalf("Moved reports customers %v; their matched facilities changed for %v", moved, changed)
	}
}
