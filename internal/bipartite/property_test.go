package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mcfs/internal/data"
)

// TestCostMonotoneOverAugmentations: every successful FindPair can only
// raise the total matched cost (min-cost flow cost grows with value).
func TestCostMonotoneOverAugmentations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(6)
		l := 1 + rng.Intn(6)
		n := m + l + 5 + rng.Intn(30)
		g := randomNetwork(rng, n)
		perm := rng.Perm(n)
		custNodes := make([]int32, m)
		for i := range custNodes {
			custNodes[i] = int32(perm[i])
		}
		facs := make([]data.Facility, l)
		for j := range facs {
			facs[j] = data.Facility{Node: int32(perm[m+j]), Capacity: 1 + rng.Intn(3)}
		}
		mt := New(g, custNodes, facs)
		prev := int64(0)
		for step := 0; step < 2*m; step++ {
			c := rng.Intn(m)
			before := mt.TotalMatchedCost()
			if before != prev {
				return false // cost changed outside FindPair
			}
			mt.FindPair(c)
			after := mt.TotalMatchedCost()
			if after < before {
				return false
			}
			prev = after
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadsNeverExceedCapacity under arbitrary FindPair sequences.
func TestLoadsNeverExceedCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(5)
		l := 1 + rng.Intn(5)
		n := m + l + 4 + rng.Intn(20)
		g := randomNetwork(rng, n)
		perm := rng.Perm(n)
		custNodes := make([]int32, m)
		for i := range custNodes {
			custNodes[i] = int32(perm[i])
		}
		facs := make([]data.Facility, l)
		for j := range facs {
			facs[j] = data.Facility{Node: int32(perm[m+j]), Capacity: rng.Intn(3)}
		}
		mt := New(g, custNodes, facs)
		for step := 0; step < 3*m; step++ {
			mt.FindPair(rng.Intn(m))
			for j := 0; j < l; j++ {
				if mt.AssignedCount(j) > facs[j].Capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicReplay: rebuilding a matcher and replaying the same
// FindPair sequence reproduces costs and stats exactly.
func TestDeterministicReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		m, l := 2+rng.Intn(4), 2+rng.Intn(4)
		n := m + l + 10 + rng.Intn(20)
		g := randomNetwork(rng, n)
		perm := rng.Perm(n)
		custNodes := make([]int32, m)
		for i := range custNodes {
			custNodes[i] = int32(perm[i])
		}
		facs := make([]data.Facility, l)
		for j := range facs {
			facs[j] = data.Facility{Node: int32(perm[m+j]), Capacity: 1 + rng.Intn(2)}
		}
		var seq []int
		for s := 0; s < 2*m; s++ {
			seq = append(seq, rng.Intn(m))
		}
		run := func() (int64, Stats) {
			mt := New(g, custNodes, facs)
			for _, c := range seq {
				mt.FindPair(c)
			}
			return mt.TotalMatchedCost(), mt.Stats()
		}
		c1, s1 := run()
		c2, s2 := run()
		if c1 != c2 || s1 != s2 {
			t.Fatalf("trial %d: replay diverged: %d/%+v vs %d/%+v", trial, c1, s1, c2, s2)
		}
	}
}
