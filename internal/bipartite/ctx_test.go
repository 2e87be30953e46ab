package bipartite

import (
	"context"
	"errors"
	"slices"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

func ctxTestMatcher(t *testing.T) *Matcher {
	t.Helper()
	b := graph.NewBuilder(6, false)
	for i := 0; i < 5; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	facs := []data.Facility{{Node: 0, Capacity: 1}, {Node: 5, Capacity: 1}}
	return New(g, []int32{2, 3}, facs)
}

func TestFindPairCtxCancelledLeavesMatchingUntouched(t *testing.T) {
	mt := ctxTestMatcher(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	matched, err := mt.FindPairCtx(ctx, 0)
	if matched {
		t.Fatal("cancelled FindPairCtx reported a match")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if mt.MatchCount(0) != 0 {
		t.Fatalf("MatchCount(0) = %d after cancelled call, want 0", mt.MatchCount(0))
	}
}

// TestFindPairCtxBackgroundMatchesFindPair: the checkpoints never alter
// the search; a live cancellable ctx (non-nil Done) matches Background.
func TestFindPairCtxBackgroundMatchesFindPair(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, b := ctxTestMatcher(t), ctxTestMatcher(t)
	for i := 0; i < 2; i++ {
		want, got := must(a.FindPairCtx(context.Background(), i)), must(b.FindPairCtx(live, i))
		if got != want {
			t.Fatalf("customer %d: live ctx = %v, Background = %v", i, got, want)
		}
	}
	for i := 0; i < 2; i++ {
		af, aw := a.Matches(i)
		bf, bw := b.Matches(i)
		if !slices.Equal(af, bf) || !slices.Equal(aw, bw) {
			t.Fatalf("customer %d: matches differ", i)
		}
	}
}

// must unwraps a call that cannot fail under an uncancelled context.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
