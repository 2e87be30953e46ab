package graph

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
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

// randomDisconnectedGraph builds a graph with (at least) two components:
// nodes below cut and nodes from cut up each get their own spanning
// tree, and extra edges never cross the cut.
func randomDisconnectedGraph(rng *rand.Rand, n, extraEdges int, maxW int64) *Graph {
	if n < 2 {
		panic("randomDisconnectedGraph needs n >= 2")
	}
	b := NewBuilder(n, false)
	cut := 1 + rng.Intn(n-1)
	for i := 1; i < n; i++ {
		if i == cut {
			continue // cut starts the second component
		}
		var j int
		if i < cut {
			j = rng.Intn(i)
		} else {
			j = cut + rng.Intn(i-cut)
		}
		b.AddEdge(int32(i), int32(j), 1+rng.Int63n(maxW))
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || (u < cut) != (v < cut) {
			continue
		}
		b.AddEdge(int32(u), int32(v), 1+rng.Int63n(maxW))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// nnHit is one candidate an NNSearcher returned, with its distance.
type nnHit struct {
	node int32
	dist int64
}

// drainSearcher runs s to exhaustion and returns what it enumerated.
// Before every Next it checks that PeekDist equals the distance Next
// then returns, and Inf once exhausted.
func drainSearcher(s *NNSearcher) ([]nnHit, error) {
	var hits []nnHit
	for {
		peek := s.PeekDist()
		node, d, ok := s.Next()
		if !ok {
			if peek != Inf {
				return nil, fmt.Errorf("PeekDist %d after exhaustion, want Inf", peek)
			}
			return hits, s.Err()
		}
		if peek != d {
			return nil, fmt.Errorf("PeekDist %d before Next returned (%d,%d)", peek, node, d)
		}
		hits = append(hits, nnHit{node, d})
	}
}

// enumerationMismatch checks an NNSearcher's enumeration against
// reference distances: every reachable candidate appears exactly once,
// at its reference distance, in nondecreasing distance order.
func enumerationMismatch(hits []nnHit, want []int64, mask []bool) error {
	reachable := 0
	for v, cand := range mask {
		if cand && want[v] < Inf {
			reachable++
		}
	}
	seen := make([]bool, len(mask))
	for i, h := range hits {
		switch {
		case !mask[h.node]:
			return fmt.Errorf("hit %d: node %d is not a candidate", i, h.node)
		case seen[h.node]:
			return fmt.Errorf("hit %d: node %d returned twice", i, h.node)
		case h.dist != want[h.node]:
			return fmt.Errorf("hit %d: node %d at %d, want %d", i, h.node, h.dist, want[h.node])
		case i > 0 && h.dist < hits[i-1].dist:
			return fmt.Errorf("hit %d: distance %d after %d", i, h.dist, hits[i-1].dist)
		}
		seen[h.node] = true
	}
	if len(hits) != reachable {
		return fmt.Errorf("enumerated %d candidates, %d reachable", len(hits), reachable)
	}
	return nil
}

// FuzzDijkstra cross-checks the heap Dijkstra against the Bellman-Ford
// reference on random graphs, connected and disconnected — the
// disconnected half pins the Inf convention for unreachable nodes. It
// also drains an NNSearcher over a random candidate mask under both
// forced queue kinds and checks the enumeration against the same
// reference.
func FuzzDijkstra(f *testing.F) {
	f.Add(int64(1), int64(12), int64(20), int64(50), false)
	f.Add(int64(2), int64(30), int64(0), int64(1), true)
	f.Add(int64(-5), int64(5), int64(40), int64(1000), true)
	f.Add(int64(99), int64(58), int64(120), int64(7), false)
	f.Add(int64(1234), int64(2), int64(3), int64(9), true)
	f.Fuzz(func(t *testing.T, seed, nRaw, extraRaw, maxWRaw int64, disconnect bool) {
		n := 2 + int(fuzzMod(nRaw, 60))
		extra := int(fuzzMod(extraRaw, int64(2*n)))
		maxW := 1 + fuzzMod(maxWRaw, 100)

		rng := rand.New(rand.NewSource(seed))
		var g *Graph
		if disconnect {
			g = randomDisconnectedGraph(rng, n, extra, maxW)
		} else {
			g = randomGraph(rng, n, extra, maxW)
		}
		src := int32(rng.Intn(n))
		got := must(g.DijkstraCtx(context.Background(), src))
		want := bellmanFord(g, src)
		if len(got) != len(want) {
			t.Fatalf("Dijkstra returned %d distances for %d nodes", len(got), n)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("dist[%d] = %d, want %d (n=%d src=%d disconnect=%v seed=%d)",
					v, got[v], want[v], n, src, disconnect, seed)
			}
		}
		// Both frontier-queue implementations must agree with the
		// reference (and each other) on every fuzzed graph.
		for kind, label := range map[queueKind]string{queueHeap: "heap", queueBucket: "bucket"} {
			forced := must(withQueue(g, kind).DijkstraCtx(context.Background(), src))
			for v := range want {
				if forced[v] != want[v] {
					t.Fatalf("%s queue: dist[%d] = %d, want %d (n=%d src=%d maxW=%d seed=%d)",
						label, v, forced[v], want[v], n, src, maxW, seed)
				}
			}
		}
		// The searcher's enumeration under each forced kind must match
		// the reference, and the two kinds must enumerate identically.
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = rng.Intn(3) == 0
		}
		var drained [2][]nnHit
		for i, kind := range []queueKind{queueHeap, queueBucket} {
			hits, err := drainSearcher(NewNNSearcherCtx(context.Background(), withQueue(g, kind), src, mask))
			if err == nil {
				err = enumerationMismatch(hits, want, mask)
			}
			if err != nil {
				t.Fatalf("NNSearcher, queue kind %d: %v (n=%d src=%d maxW=%d seed=%d)", kind, err, n, src, maxW, seed)
			}
			drained[i] = hits
		}
		if !reflect.DeepEqual(drained[0], drained[1]) {
			t.Fatalf("NNSearcher heap and bucket enumerations differ:\nheap   %v\nbucket %v (n=%d src=%d seed=%d)",
				drained[0], drained[1], n, src, seed)
		}
		if disconnect {
			unreachable := false
			for _, d := range got {
				if d >= Inf {
					unreachable = true
					break
				}
			}
			if !unreachable {
				t.Fatalf("disconnected graph reports every node reachable from %d (n=%d seed=%d)", src, n, seed)
			}
		}
	})
}
