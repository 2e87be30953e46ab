package graph

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDijkstraTriangleInequality: d(a,c) <= d(a,b) + d(b,c) for shortest
// path distances on undirected graphs.
func TestDijkstraTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := randomGraph(rng, n, n, 30)
		a := int32(rng.Intn(n))
		b := int32(rng.Intn(n))
		c := int32(rng.Intn(n))
		da := must(g.DijkstraCtx(context.Background(), a))
		db := must(g.DijkstraCtx(context.Background(), b))
		if da[b] >= Inf || db[c] >= Inf {
			return true // unreachable legs make the bound vacuous
		}
		return da[c] <= da[b]+db[c]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDijkstraSymmetryUndirected: d(a,b) == d(b,a) on undirected graphs.
func TestDijkstraSymmetryUndirected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		g := randomGraph(rng, n, n/2, 25)
		a := int32(rng.Intn(n))
		b := int32(rng.Intn(n))
		return must(g.DijkstraCtx(context.Background(), a))[b] == must(g.DijkstraCtx(context.Background(), b))[a]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDijkstraIdentityAndNonnegativity: d(a,a) == 0 and all distances
// nonnegative.
func TestDijkstraIdentityAndNonnegativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := randomGraph(rng, n, n, 20)
		a := int32(rng.Intn(n))
		d := must(g.DijkstraCtx(context.Background(), a))
		if d[a] != 0 {
			return false
		}
		for _, v := range d {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestNNSearcherCompleteness: the searcher enumerates exactly the
// reachable candidates, never repeating one.
func TestNNSearcherCompleteness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(n), 15)
		isCand := make([]bool, n)
		for v := range isCand {
			isCand[v] = rng.Intn(2) == 0
		}
		src := int32(rng.Intn(n))
		full := must(g.DijkstraCtx(context.Background(), src))
		reachable := 0
		for v := 0; v < n; v++ {
			if isCand[v] && full[v] < Inf {
				reachable++
			}
		}
		s := NewNNSearcherCtx(context.Background(), g, src, isCand)
		seen := map[int32]bool{}
		for {
			node, _, ok := s.Next()
			if !ok {
				break
			}
			if seen[node] {
				return false
			}
			seen[node] = true
		}
		return len(seen) == reachable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiSourceLowerBound: the multi-source distance never exceeds any
// single-source distance.
func TestMultiSourceLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := randomGraph(rng, n, n, 20)
		ns := 1 + rng.Intn(4)
		sources := make([]int32, ns)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
		}
		dist, _, err := g.MultiSourceDijkstraCtx(context.Background(), sources)
		if err != nil {
			return false
		}
		single := must(g.DijkstraCtx(context.Background(), sources[rng.Intn(ns)]))
		for v := 0; v < n; v++ {
			if dist[v] > single[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestComponentsPartition: component labels form a partition consistent
// with edges (endpoints always share a label).
func TestComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		b := NewBuilder(n, false)
		for e := 0; e < rng.Intn(2*n); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(int32(u), int32(v), 1+rng.Int63n(5))
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		comp, count := g.Components()
		for _, c := range comp {
			if c < 0 || int(c) >= count {
				return false
			}
		}
		ok := true
		for v := int32(0); v < int32(n); v++ {
			g.Neighbors(v, func(u int32, _ int64) bool {
				if comp[u] != comp[v] {
					ok = false
					return false
				}
				return true
			})
		}
		sizes := ComponentSizes(comp, count)
		sum := 0
		for _, s := range sizes {
			sum += s
		}
		return ok && sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
