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

// must unwraps a call that cannot fail under an uncancelled context.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
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

// TestDijkstraCtxUncancelledIdentical: the checkpoints never alter the
// search; a live cancellable ctx (non-nil Done) matches Background.
func TestDijkstraCtxUncancelledIdentical(t *testing.T) {
	g := longLine(t, 2*checkEvery)
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	want := must(g.DijkstraCtx(context.Background(), 0))
	if got := must(g.DijkstraCtx(live, 0)); !reflect.DeepEqual(got, want) {
		t.Fatal("DijkstraCtx under a live cancellable context differs from a Background run")
	}
}

func TestMultiSourceDijkstraCtxCancelled(t *testing.T) {
	g := longLine(t, 3*checkEvery)
	_, _, err := g.MultiSourceDijkstraCtx(cancelledCtx(), []int32{0, int32(g.N() - 1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestNNSearcherCtxCancelled: a cancellation stalls the searcher
// between two pops, and a live context resumes it there. Another
// cancelled context leaves it stalled.
func TestNNSearcherCtxCancelled(t *testing.T) {
	n := 3 * checkEvery
	g := longLine(t, n)
	// The only candidate sits at the far end, so the search must pop the
	// whole path — far beyond the first checkpoint — before finding it.
	mask := make([]bool, n)
	mask[n-1] = true
	s := NewNNSearcherCtx(cancelledCtx(), g, 0, mask)
	if _, _, ok := s.Peek(); ok {
		t.Fatal("cancelled searcher yielded a neighbor")
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	s.SetContext(cancelledCtx())
	if _, _, ok := s.Next(); ok || s.Err() == nil {
		t.Fatal("a cancelled context resumed the stalled searcher")
	}
	s.SetContext(context.Background())
	if err := s.Err(); err != nil {
		t.Fatalf("Err() = %v after a live context, want nil", err)
	}
	node, d, ok := s.Next()
	if !ok || node != int32(n-1) || d != int64(n-1) {
		t.Fatalf("resumed Next() = (%d, %d, %v), want (%d, %d, true)", node, d, ok, n-1, n-1)
	}
	if _, _, ok := s.Next(); ok {
		t.Fatal("resumed searcher yielded a second candidate")
	}
	if got := s.Settled(); got != n {
		t.Fatalf("resumed searcher settled %d nodes, want %d: each node once", got, n)
	}
}
