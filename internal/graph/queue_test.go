package graph

import (
	"context"
	"math/rand"
	"testing"
)

// withQueueMode runs fn under a forced queue mode, restoring the
// previous mode afterwards.
func withQueueMode(m QueueMode, fn func()) {
	prev := SetQueueMode(m)
	defer SetQueueMode(prev)
	fn()
}

// TestQueueModesByteIdentical is the determinism acceptance check for
// the queue swap: single-source distances, multi-source distances AND
// owners (tie-sensitive), and the full NNSearcher enumeration order
// must be byte-identical under the heap and the bucket queue.
func TestQueueModesByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(60)
		maxW := int64(1 + rng.Intn(8)) // small spread: many equal distances
		g := randomGraph(rng, n, 3*n, maxW)
		src := int32(rng.Intn(n))
		sources := []int32{src, int32(rng.Intn(n)), int32(rng.Intn(n))}
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = rng.Intn(3) == 0
		}
		mask[rng.Intn(n)] = true

		type result struct {
			dist    []int64
			msDist  []int64
			msOwner []int32
			nnNodes []int32
			nnDists []int64
		}
		runAll := func() result {
			var r result
			r.dist = g.Dijkstra(src)
			r.msDist, r.msOwner = g.MultiSourceDijkstra(sources)
			s := NewNNSearcher(g, src, mask)
			for {
				node, d, ok := s.Next()
				if !ok {
					break
				}
				r.nnNodes = append(r.nnNodes, node)
				r.nnDists = append(r.nnDists, d)
			}
			return r
		}
		var heap, bucket result
		withQueueMode(QueueHeap, func() { heap = runAll() })
		withQueueMode(QueueBucket, func() { bucket = runAll() })

		for v := range heap.dist {
			if heap.dist[v] != bucket.dist[v] {
				t.Fatalf("trial %d: dist[%d] heap=%d bucket=%d", trial, v, heap.dist[v], bucket.dist[v])
			}
			if heap.msDist[v] != bucket.msDist[v] || heap.msOwner[v] != bucket.msOwner[v] {
				t.Fatalf("trial %d: multi-source node %d heap=(%d,%d) bucket=(%d,%d)",
					trial, v, heap.msDist[v], heap.msOwner[v], bucket.msDist[v], bucket.msOwner[v])
			}
		}
		if len(heap.nnNodes) != len(bucket.nnNodes) {
			t.Fatalf("trial %d: NN enumerated %d vs %d candidates", trial, len(heap.nnNodes), len(bucket.nnNodes))
		}
		for i := range heap.nnNodes {
			if heap.nnNodes[i] != bucket.nnNodes[i] || heap.nnDists[i] != bucket.nnDists[i] {
				t.Fatalf("trial %d: NN step %d heap=(%d,%d) bucket=(%d,%d)", trial, i,
					heap.nnNodes[i], heap.nnDists[i], bucket.nnNodes[i], bucket.nnDists[i])
			}
		}
	}
}

// TestBucketHeuristic pins the queue-selection rule: small weight
// ranges get the wheel, wide ones fall back to the heap.
func TestBucketHeuristic(t *testing.T) {
	small, err := NewBuilder(4, false).AddEdge(0, 1, 5).AddEdge(1, 2, 7).AddEdge(2, 3, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !small.bucketOK() {
		t.Errorf("bucketOK = false for maxW=%d n=%d, want true", small.MaxEdgeWeight(), small.N())
	}
	wide, err := NewBuilder(4, false).AddEdge(0, 1, maxWheel+5).AddEdge(1, 2, 7).Build()
	if err != nil {
		t.Fatal(err)
	}
	if wide.bucketOK() {
		t.Errorf("bucketOK = true for maxW=%d n=%d, want false", wide.MaxEdgeWeight(), wide.N())
	}
	if small.MaxEdgeWeight() != 7 {
		t.Errorf("MaxEdgeWeight = %d, want 7", small.MaxEdgeWeight())
	}
}

// TestScratchWithinMatchesMap cross-checks the scratch Within variant
// against a reference map built from the dense Dijkstra (itself checked
// against Bellman-Ford by FuzzDijkstra) on random graphs, reusing one
// scratch across trials to exercise epoch invalidation.
func TestScratchWithinMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	g := randomGraph(rng, 80, 200, 9)
	sc := g.NewScratch()
	for trial := 0; trial < 40; trial++ {
		src := int32(rng.Intn(g.N()))
		radius := int64(rng.Intn(30)) - 1 // includes -1 = unbounded
		want := make(map[int32]int64)
		for v, d := range g.Dijkstra(src) {
			if d != Inf && (radius < 0 || d <= radius) {
				want[int32(v)] = d
			}
		}
		if err := g.DijkstraWithinScratchCtx(ctx, src, radius, sc); err != nil {
			t.Fatal(err)
		}
		if sc.Visited() != len(want) {
			t.Fatalf("trial %d: scratch reached %d nodes, reference %d (src=%d radius=%d)",
				trial, sc.Visited(), len(want), src, radius)
		}
		for v, d := range want {
			got, ok := sc.Dist(v)
			if !ok || got != d {
				t.Fatalf("trial %d: Dist(%d) = (%d,%v), want (%d,true)", trial, v, got, ok, d)
			}
		}
		seen := 0
		sc.Each(func(v int32, d int64) bool {
			if want[v] != d {
				t.Fatalf("trial %d: Each(%d) = %d, want %d", trial, v, d, want[v])
			}
			seen++
			return true
		})
		if seen != len(want) {
			t.Fatalf("trial %d: Each visited %d nodes, want %d", trial, seen, len(want))
		}
	}
}

// TestScratchToTargetsMatchesMap cross-checks the scratch ToTargets
// variant (including unreachable targets and duplicates) against the
// dense Dijkstra, reusing one scratch.
func TestScratchToTargetsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ctx := context.Background()
	g := randomDisconnectedGraph(rng, 70, 120, 9)
	sc := g.NewScratch()
	for trial := 0; trial < 40; trial++ {
		src := int32(rng.Intn(g.N()))
		targets := make([]int32, 1+rng.Intn(8))
		for i := range targets {
			targets[i] = int32(rng.Intn(g.N()))
		}
		if rng.Intn(2) == 0 {
			targets = append(targets, targets[0]) // duplicate target
		}
		want := g.Dijkstra(src)
		out := make([]int64, len(targets))
		if err := g.DijkstraToTargetsScratchCtx(ctx, src, targets, out, sc); err != nil {
			t.Fatal(err)
		}
		for i, tg := range targets {
			if out[i] != want[tg] {
				t.Fatalf("trial %d: out[%d] (target %d) = %d, want %d", trial, i, tg, out[i], want[tg])
			}
		}
	}
}

// TestScratchCancellation checks both scratch variants surface
// ctx.Err() on a cancelled context.
func TestScratchCancellation(t *testing.T) {
	g := longLine(t, 3*checkEvery)
	sc := g.NewScratch()
	if err := g.DijkstraWithinScratchCtx(cancelledCtx(), 0, -1, sc); err == nil {
		t.Fatal("DijkstraWithinScratchCtx ignored a cancelled context")
	}
	out := make([]int64, 1)
	if err := g.DijkstraToTargetsScratchCtx(cancelledCtx(), 0, []int32{int32(g.N() - 1)}, out, sc); err == nil {
		t.Fatal("DijkstraToTargetsScratchCtx ignored a cancelled context")
	}
}
