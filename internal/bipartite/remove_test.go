package bipartite

import (
	"context"
	"math/rand"
	"testing"

	"mcfs/internal/data"
)

// TestRemoveCustomerRandomized churns small instances with capacities
// of one or two, so departures often leave a full facility, and checks
// after every arrival and removal that the matching costs exactly the
// dense reference optimum for the customers still present, and that
// Moved names exactly the customers each call moved. It also
// requires that some removals ran the cycle search and some cancelled
// a cycle; without both the test would not reach the repair.
func TestRemoveCustomerRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	ctx := context.Background()
	searches, cycles := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 12 + rng.Intn(30)
		g := randomNetwork(rng, n)
		perm := rng.Perm(n)
		l := 1 + rng.Intn(5)
		facs := make([]data.Facility, l)
		caps := make([]int, l)
		for j := range facs {
			caps[j] = 1 + rng.Intn(2)
			facs[j] = data.Facility{Node: int32(perm[j]), Capacity: caps[j]}
		}
		mt := New(g, nil, facs)
		var nodes []int32 // network node of each matcher customer
		for step := 0; step < 30; step++ {
			if len(nodes) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(nodes))
				before, runs := matchedSets(mt), mt.Stats().DijkstraRuns
				if must(mt.RemoveCustomerCtx(ctx, k)) > 0 {
					cycles++
				}
				checkMoved(t, mt, before, k)
				searches += mt.Stats().DijkstraRuns - runs
				nodes[k] = nodes[len(nodes)-1]
				nodes = nodes[:len(nodes)-1]
			} else {
				node := int32(rng.Intn(n))
				i := mt.AddCustomer(node)
				before := matchedSets(mt)
				ok := must(mt.FindPairCtx(ctx, i))
				checkMoved(t, mt, before, -1)
				checkInvariants(t, mt)
				if !ok {
					// Unservable: drop the unmatched newcomer again.
					before = matchedSets(mt)
					must(mt.RemoveCustomerCtx(ctx, i))
					checkMoved(t, mt, before, i)
				} else {
					nodes = append(nodes, node)
				}
			}
			checkInvariants(t, mt)
			demands := make([]int, len(nodes))
			for i := range demands {
				demands[i] = 1
			}
			want, ok := refMinCost(denseDistances(g, nodes, facs), caps, demands)
			if !ok {
				t.Fatalf("trial %d step %d: reference cannot serve the %d customers the matcher holds", trial, step, len(nodes))
			}
			if got := mt.TotalMatchedCost(); got != want {
				t.Fatalf("trial %d step %d: matching costs %d, reference optimum %d", trial, step, got, want)
			}
		}
	}
	if searches == 0 || cycles == 0 {
		t.Fatalf("%d cycle searches, %d cancelled cycles: the churn never exercised the repair", searches, cycles)
	}
	t.Logf("%d cycle searches, %d cancelled cycles", searches, cycles)
}

// TestRemoveCustomerRejectsMultipleMatches: releasing two slots could
// need two cycles, so a customer matched twice is refused and the
// matcher is left as it was.
func TestRemoveCustomerRejectsMultipleMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomNetwork(rng, 20)
	facs := []data.Facility{{Node: 0, Capacity: 1}, {Node: 5, Capacity: 1}, {Node: 9, Capacity: 1}}
	mt := New(g, []int32{3, 14}, facs)
	ctx := context.Background()
	for _, i := range []int{0, 0, 1} {
		if !must(mt.FindPairCtx(ctx, i)) {
			t.Fatalf("FindPair(%d) found no facility", i)
		}
	}
	cost := mt.TotalMatchedCost()
	if _, err := mt.RemoveCustomerCtx(ctx, 0); err == nil {
		t.Fatal("removed a customer holding two matches")
	}
	if moved := mt.Moved(nil); len(moved) > 0 {
		t.Fatalf("a rejected removal reports moved customers %v", moved)
	}
	if _, err := mt.RemoveCustomerCtx(ctx, 2); err == nil {
		t.Fatal("removed customer index 2 of 2")
	}
	if mt.M() != 2 || mt.MatchCount(0) != 2 || mt.TotalMatchedCost() != cost {
		t.Fatalf("rejected removals changed the matcher: %d customers, %d matches, cost %d → %d",
			mt.M(), mt.MatchCount(0), cost, mt.TotalMatchedCost())
	}
	checkInvariants(t, mt)
	if must(mt.RemoveCustomerCtx(ctx, 1)); mt.M() != 1 || mt.MatchCount(0) != 2 {
		t.Fatalf("removing customer 1 left %d customers, customer 0 with %d matches", mt.M(), mt.MatchCount(0))
	}
	checkInvariants(t, mt)
}
