package graph

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// TestNNSearcherConcurrentConstruction drives many searchers in parallel
// over one shared isCand slice — the access pattern of parallel bench
// cells (and the bipartite matcher) sharing a candidate mask. Run under
// -race; also cross-checks every drained order against Dijkstra.
func TestNNSearcherConcurrentConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 300
	g := randomGraph(rng, n, 2*n, 25)
	isCand := make([]bool, n)
	for v := 0; v < n; v += 3 {
		isCand[v] = true
	}

	type drained struct {
		src   int32
		nodes []int32
		dists []int64
	}
	const searchers = 16
	results := make([]drained, searchers)
	var wg sync.WaitGroup
	for i := 0; i < searchers; i++ {
		i := i
		src := int32(rng.Intn(n))
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewNNSearcherCtx(context.Background(), g, src, isCand)
			res := drained{src: src}
			for {
				v, d, ok := s.Next()
				if !ok {
					break
				}
				res.nodes = append(res.nodes, v)
				res.dists = append(res.dists, d)
			}
			results[i] = res
		}()
	}
	wg.Wait()

	for _, res := range results {
		want := must(g.DijkstraCtx(context.Background(), res.src))
		last := int64(-1)
		for j, v := range res.nodes {
			if !isCand[v] {
				t.Fatalf("src %d yielded non-candidate %d", res.src, v)
			}
			if res.dists[j] != want[v] {
				t.Fatalf("src %d: dist(%d) = %d, want %d", res.src, v, res.dists[j], want[v])
			}
			if res.dists[j] < last {
				t.Fatalf("src %d: distances not nondecreasing", res.src)
			}
			last = res.dists[j]
		}
	}
}
