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

// TestALTCloneConcurrent answers queries from cloned oracles in parallel
// and checks them against serial Dijkstra truth. The clones share the
// preprocessed landmark tables of one parent; run under -race.
func TestALTCloneConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 250
	g := randomGraph(rng, n, 2*n, 30)
	parent, err := NewALT(g, 5, 3)
	if err != nil {
		t.Fatal(err)
	}

	type query struct{ s, t int32 }
	const workers, perWorker = 8, 40
	queries := make([][]query, workers)
	want := make([][]int64, workers)
	for w := 0; w < workers; w++ {
		for q := 0; q < perWorker; q++ {
			s, u := int32(rng.Intn(n)), int32(rng.Intn(n))
			queries[w] = append(queries[w], query{s, u})
			want[w] = append(want[w], must(g.DijkstraCtx(context.Background(), s))[u])
		}
	}

	got := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		oracle := parent.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range queries[w] {
				got[w] = append(got[w], oracle.Distance(q.s, q.t))
			}
		}()
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		for q := range queries[w] {
			if got[w][q] != want[w][q] {
				t.Fatalf("worker %d query %d: clone dist(%d,%d) = %d, want %d",
					w, q, queries[w][q].s, queries[w][q].t, got[w][q], want[w][q])
			}
		}
	}
}
