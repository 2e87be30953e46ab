package graph

import (
	"context"
	"math/rand"
	"testing"
)

func TestALTMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 15; trial++ {
		n := 20 + rng.Intn(150)
		g := randomGraph(rng, n, 2*n, 40)
		alt, err := NewALT(g, 4, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 30; q++ {
			s := int32(rng.Intn(n))
			u := int32(rng.Intn(n))
			want := must(g.DijkstraCtx(context.Background(), s))[u]
			if got := alt.Distance(s, u); got != want {
				t.Fatalf("trial %d: ALT dist(%d,%d) = %d, want %d", trial, s, u, got, want)
			}
		}
	}
}

func TestALTDisconnected(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1, 3).AddEdge(2, 3, 4)
	g, _ := b.Build()
	alt, err := NewALT(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := alt.Distance(0, 3); d != Inf {
		t.Fatalf("cross-component distance = %d, want Inf", d)
	}
	if d := alt.Distance(0, 1); d != 3 {
		t.Fatalf("distance = %d, want 3", d)
	}
}

func TestALTIdentityAndClamping(t *testing.T) {
	g := line(t, 5)
	alt, err := NewALT(g, 99, 2) // clamped to N
	if err != nil {
		t.Fatal(err)
	}
	if len(alt.Landmarks()) > 5 {
		t.Fatalf("landmarks = %d", len(alt.Landmarks()))
	}
	if d := alt.Distance(3, 3); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
	if d := alt.Distance(0, 4); d != 4 {
		t.Fatalf("end-to-end = %d, want 4", d)
	}
}

func TestALTRejectsDirected(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 1, 1)
	g, _ := b.Build()
	if _, err := NewALT(g, 2, 1); err == nil {
		t.Fatal("directed graph accepted")
	}
}

func TestALTPrunesVsDijkstra(t *testing.T) {
	// On a long path with a query between near neighbors, A* must settle
	// far fewer nodes than the graph holds.
	g := line(t, 2000)
	alt, err := NewALT(g, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d := alt.Distance(1000, 1010); d != 10 {
		t.Fatalf("distance = %d, want 10", d)
	}
	if alt.Scanned() > 200 {
		t.Fatalf("A* settled %d nodes for a 10-hop query on a path", alt.Scanned())
	}
}

func BenchmarkALTQueryGrid(b *testing.B) {
	const side = 80
	bld := NewBuilder(side*side, false)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := int32(r*side + c)
			if c+1 < side {
				bld.AddEdge(v, v+1, 1)
			}
			if r+1 < side {
				bld.AddEdge(v, v+side, 1)
			}
		}
	}
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	alt, err := NewALT(g, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := int32(rng.Intn(side * side))
		t := int32(rng.Intn(side * side))
		alt.Distance(s, t)
	}
}
