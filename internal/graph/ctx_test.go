package graph

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// longLine builds a path graph with enough nodes that the hot loops are
// guaranteed to cross a cancellation checkpoint (every ~4096 heap pops).
func longLine(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestDijkstraCtxCancelled(t *testing.T) {
	g := longLine(t, 3*checkEvery)
	dist, err := g.DijkstraCtx(cancelledCtx(), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if dist != nil {
		t.Fatal("cancelled Dijkstra returned distances")
	}
}

func TestDijkstraCtxUncancelledIdentical(t *testing.T) {
	g := longLine(t, 2*checkEvery)
	want := g.Dijkstra(0)
	got, err := g.DijkstraCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("DijkstraCtx differs from Dijkstra on an uncancelled run")
	}
}

func TestMultiSourceDijkstraCtxCancelled(t *testing.T) {
	g := longLine(t, 3*checkEvery)
	_, _, err := g.MultiSourceDijkstraCtx(cancelledCtx(), []int32{0, int32(g.N() - 1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestNNSearcherCtxCancelled(t *testing.T) {
	n := 3 * checkEvery
	g := longLine(t, n)
	// The only candidate sits at the far end, so the search must pop the
	// whole path — far beyond the first checkpoint — before finding it.
	mask := make([]bool, n)
	mask[n-1] = true
	s := NewNNSearcherCtx(cancelledCtx(), g, 0, mask)
	if _, _, ok := s.Next(); ok {
		t.Fatal("cancelled searcher yielded a neighbor")
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	// Uncancelled searcher over the same input still finds the candidate.
	s2 := NewNNSearcherCtx(context.Background(), g, 0, mask)
	node, d, ok := s2.Next()
	if !ok || node != int32(n-1) || d != int64(n-1) {
		t.Fatalf("Next() = (%d, %d, %v), want (%d, %d, true)", node, d, ok, n-1, n-1)
	}
}
