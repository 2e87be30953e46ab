package graph

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mcfs/internal/pq"
)

// twinScale multiplies every edge weight of a graph's heap twin.
const twinScale = maxWheel + 1

// heapTwin returns a copy of g whose edge weights are multiplied by
// twinScale. The copy fails bucketOK, so its dense searches run on the
// lazy heap where g's run on the wheel (when g passes bucketOK).
// Scaling keeps every comparison and every tie, so under the pinned
// equal-key order both pop the same nodes in the same order: distances
// agree once divided back (unscale) and multi-source owners agree as
// they are.
func heapTwin(g *Graph) *Graph {
	twin := *g
	twin.w = make([]int64, len(g.w))
	for i, w := range g.w {
		twin.w[i] = w * twinScale
	}
	twin.maxW = g.maxW * twinScale
	return &twin
}

// unscale divides a heap twin's distances back to g's, keeping Inf.
func unscale(dist []int64) []int64 {
	out := make([]int64, len(dist))
	for v, d := range dist {
		if d < Inf {
			d /= twinScale
		}
		out[v] = d
	}
	return out
}

// TestQueueModesByteIdentical is the determinism acceptance check for
// the queue selection: single-source distances and multi-source
// distances AND owners (tie-sensitive) must be identical on the bucket
// queue (g) and on the lazy heap (g's heap twin).
func TestQueueModesByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(60)
		maxW := int64(1 + rng.Intn(8)) // small spread: many equal distances
		g := randomGraph(rng, n, 3*n, maxW)
		twin := heapTwin(g)
		if !g.bucketOK() || twin.bucketOK() {
			t.Fatalf("trial %d: bucketOK = %v on the graph, %v on its twin; want true, false",
				trial, g.bucketOK(), twin.bucketOK())
		}
		src := int32(rng.Intn(n))
		sources := []int32{src, int32(rng.Intn(n)), int32(rng.Intn(n))}

		type result struct {
			dist    []int64
			msDist  []int64
			msOwner []int32
		}
		runAll := func(g *Graph) result {
			var r result
			var err error
			r.dist = must(g.DijkstraCtx(ctx, src))
			if r.msDist, r.msOwner, err = g.MultiSourceDijkstraCtx(ctx, sources); err != nil {
				t.Fatal(err)
			}
			return r
		}
		bucket, heap := runAll(g), runAll(twin)
		heap.dist, heap.msDist = unscale(heap.dist), unscale(heap.msDist)
		if !reflect.DeepEqual(heap, bucket) {
			t.Fatalf("trial %d: heap and bucket searches differ:\nheap   %+v\nbucket %+v", trial, heap, bucket)
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
	if _, ok := small.newDenseQueue().(*pq.BucketQueue); !ok {
		t.Error("a graph passing bucketOK did not get the bucket queue")
	}
	if _, ok := wide.newDenseQueue().(*pq.LazyHeap); !ok {
		t.Error("a graph failing bucketOK did not get the lazy heap")
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
		for v, d := range must(g.DijkstraCtx(ctx, src)) {
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
		want := must(g.DijkstraCtx(ctx, src))
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
