package graph

import (
	"context"
	"math/rand"
	"sort"
	"testing"
)

// line builds the path graph 0-1-2-...-(n-1) with unit weights.
func line(t *testing.T, n int) *Graph {
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

// randomGraph builds a random connected-ish undirected graph.
func randomGraph(rng *rand.Rand, n, extraEdges int, maxW int64) *Graph {
	b := NewBuilder(n, false)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		// random spanning tree
		j := rng.Intn(i)
		b.AddEdge(int32(perm[i]), int32(perm[j]), 1+rng.Int63n(maxW))
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
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

// bellmanFord is a reference shortest-path implementation.
func bellmanFord(g *Graph, src int32) []int64 {
	n := g.N()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for v := int32(0); v < int32(n); v++ {
			if dist[v] >= Inf {
				continue
			}
			g.Neighbors(v, func(u int32, w int64) bool {
				if dist[v]+w < dist[u] {
					dist[u] = dist[v] + w
					changed = true
				}
				return true
			})
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestBuilderValidation(t *testing.T) {
	cases := []struct {
		name string
		edit func(b *Builder)
	}{
		{"out of range", func(b *Builder) { b.AddEdge(0, 5, 1) }},
		{"negative node", func(b *Builder) { b.AddEdge(-1, 0, 1) }},
		{"zero weight", func(b *Builder) { b.AddEdge(0, 1, 0) }},
		{"negative weight", func(b *Builder) { b.AddEdge(0, 1, -3) }},
		{"weight at Inf", func(b *Builder) { b.AddEdge(0, 1, Inf) }},
		{"bad coords", func(b *Builder) { b.SetCoords([]float64{1}, []float64{1}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder(3, false)
			c.edit(b)
			if _, err := b.Build(); err == nil {
				t.Fatal("Build accepted invalid input")
			}
		})
	}
}

func TestBuildEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0, false).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph has N=%d M=%d", g.N(), g.M())
	}
	if g.AvgDegree() != 0 || g.MaxDegree() != 0 || g.AvgEdgeWeight() != 0 {
		t.Fatal("empty-graph stats nonzero")
	}
}

func TestCSRAdjacency(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1, 5).AddEdge(1, 2, 7).AddEdge(0, 3, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	got := map[int32]int64{}
	g.Neighbors(0, func(u int32, w int64) bool { got[u] = w; return true })
	if len(got) != 2 || got[1] != 5 || got[3] != 2 {
		t.Fatalf("neighbors of 0 = %v", got)
	}
	// Undirected: reverse arcs exist.
	found := false
	g.Neighbors(3, func(u int32, w int64) bool {
		if u == 0 && w == 2 {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("reverse arc 3->0 missing in undirected graph")
	}
	if g.Degree(0) != 2 || g.Degree(2) != 1 {
		t.Fatalf("degrees: %d %d", g.Degree(0), g.Degree(2))
	}
}

func TestDirectedGraphOneWay(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 1, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() {
		t.Fatal("Directed() = false")
	}
	d := must(g.DijkstraCtx(context.Background(), 0))
	if d[1] != 4 {
		t.Fatalf("dist 0->1 = %d, want 4", d[1])
	}
	d = must(g.DijkstraCtx(context.Background(), 1))
	if d[0] != Inf {
		t.Fatalf("dist 1->0 = %d, want Inf", d[0])
	}
}

func TestNeighborsEarlyStop(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1, 1).AddEdge(0, 2, 1)
	g, _ := b.Build()
	calls := 0
	g.Neighbors(0, func(int32, int64) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early stop ignored, calls = %d", calls)
	}
}

func TestDijkstraLine(t *testing.T) {
	g := line(t, 5)
	d := must(g.DijkstraCtx(context.Background(), 0))
	for i := 0; i < 5; i++ {
		if d[i] != int64(i) {
			t.Fatalf("d[%d] = %d, want %d", i, d[i], i)
		}
	}
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(3*n), 50)
		src := int32(rng.Intn(n))
		want := bellmanFord(g, src)
		got := must(g.DijkstraCtx(context.Background(), src))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d: dist[%d] = %d, want %d", trial, v, got[v], want[v])
			}
		}
	}
}

func TestDijkstraDisconnected(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1, 1).AddEdge(2, 3, 1)
	g, _ := b.Build()
	d := must(g.DijkstraCtx(context.Background(), 0))
	if d[2] != Inf || d[3] != Inf {
		t.Fatalf("unreachable nodes have dist %d, %d", d[2], d[3])
	}
}

func TestDijkstraWithinRadius(t *testing.T) {
	g := line(t, 10)
	sc := g.NewScratch()
	if err := g.DijkstraWithinScratchCtx(context.Background(), 0, 3, sc); err != nil {
		t.Fatal(err)
	}
	if sc.Visited() != 4 {
		t.Fatalf("radius 3 reached %d nodes, want 4", sc.Visited())
	}
	sc.Each(func(v int32, d int64) bool {
		if d != int64(v) {
			t.Fatalf("dist[%d] = %d", v, d)
		}
		return true
	})
	// Unbounded matches full Dijkstra.
	if err := g.DijkstraWithinScratchCtx(context.Background(), 0, -1, sc); err != nil {
		t.Fatal(err)
	}
	full := must(g.DijkstraCtx(context.Background(), 0))
	sc.Each(func(v int32, d int64) bool {
		if full[v] != d {
			t.Fatalf("unbounded within: dist[%d] = %d, want %d", v, d, full[v])
		}
		return true
	})
	if sc.Visited() != 10 {
		t.Fatalf("unbounded within visited %d nodes", sc.Visited())
	}
}

func TestDijkstraToTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 50, 80, 20)
	full := must(g.DijkstraCtx(context.Background(), 3))
	targets := []int32{7, 11, 49, 3} // unsorted, and the source itself
	got := make([]int64, len(targets))
	if err := g.DijkstraToTargetsScratchCtx(context.Background(), 3, targets, got, g.NewScratch()); err != nil {
		t.Fatal(err)
	}
	for i, tg := range targets {
		if got[i] != full[tg] {
			t.Fatalf("target %d: got %d, want %d", tg, got[i], full[tg])
		}
	}
}

func TestDijkstraToTargetsUnreachable(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(0, 1, 1)
	g, _ := b.Build()
	got := make([]int64, 2)
	if err := g.DijkstraToTargetsScratchCtx(context.Background(), 0, []int32{1, 2}, got, g.NewScratch()); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != Inf {
		t.Fatalf("got %v", got)
	}
}

func TestMultiSourceDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 80, 120, 30)
	sources := []int32{5, 40, 77}
	ctx := context.Background()
	dist, owner, err := g.MultiSourceDijkstraCtx(ctx, sources)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: min over per-source Dijkstras.
	per := make([][]int64, len(sources))
	for i, s := range sources {
		per[i] = must(g.DijkstraCtx(ctx, s))
	}
	for v := 0; v < g.N(); v++ {
		best := Inf
		for i := range sources {
			if per[i][v] < best {
				best = per[i][v]
			}
		}
		if dist[v] != best {
			t.Fatalf("node %d: multi-source dist %d, want %d", v, dist[v], best)
		}
		if best < Inf {
			if owner[v] < 0 || per[owner[v]][v] != best {
				t.Fatalf("node %d: owner %d does not achieve min dist", v, owner[v])
			}
		} else if owner[v] != -1 {
			t.Fatalf("unreachable node %d has owner %d", v, owner[v])
		}
	}
}

func TestMultiSourceDuplicateSources(t *testing.T) {
	g := line(t, 4)
	dist, owner, err := g.MultiSourceDijkstraCtx(context.Background(), []int32{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != 0 || owner[2] != 0 {
		t.Fatalf("duplicate source: dist=%d owner=%d", dist[2], owner[2])
	}
}

func TestNNSearcherOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(80)
		g := randomGraph(rng, n, 2*n, 25)
		isCand := make([]bool, n)
		var cands []int32
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				isCand[v] = true
				cands = append(cands, int32(v))
			}
		}
		src := int32(rng.Intn(n))
		full := must(g.DijkstraCtx(context.Background(), src))
		type pair struct {
			node int32
			d    int64
		}
		var want []pair
		for _, c := range cands {
			if full[c] < Inf {
				want = append(want, pair{c, full[c]})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].d < want[j].d })

		s := NewNNSearcherCtx(context.Background(), g, src, isCand)
		var got []pair
		for {
			// PeekDist must equal the distance Next is about to return.
			pd := s.PeekDist()
			node, d, ok := s.Next()
			if !ok {
				if pd != Inf {
					t.Fatal("PeekDist finite after exhaustion")
				}
				break
			}
			if pd != d {
				t.Fatalf("PeekDist %d != Next dist %d", pd, d)
			}
			got = append(got, pair{node, d})
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: enumerated %d candidates, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].d != want[i].d {
				t.Fatalf("trial %d: dist[%d] = %d, want %d", trial, i, got[i].d, want[i].d)
			}
			if full[got[i].node] != got[i].d {
				t.Fatalf("trial %d: returned dist inconsistent with Dijkstra", trial)
			}
		}
		// Each candidate returned exactly once.
		seen := map[int32]bool{}
		for _, p := range got {
			if seen[p.node] {
				t.Fatalf("candidate %d returned twice", p.node)
			}
			seen[p.node] = true
		}
	}
}

func TestNNSearcherNoCandidates(t *testing.T) {
	g := line(t, 5)
	s := NewNNSearcherCtx(context.Background(), g, 0, make([]bool, 5))
	if _, _, ok := s.Next(); ok {
		t.Fatal("Next returned candidate with empty candidate set")
	}
	if s.PeekDist() != Inf {
		t.Fatal("PeekDist != Inf with no candidates")
	}
}

func TestNNSearcherSourceIsCandidate(t *testing.T) {
	g := line(t, 3)
	isCand := []bool{true, false, true}
	s := NewNNSearcherCtx(context.Background(), g, 0, isCand)
	node, d, ok := s.Next()
	if !ok || node != 0 || d != 0 {
		t.Fatalf("first = (%d,%d,%v), want (0,0,true)", node, d, ok)
	}
	node, d, ok = s.Next()
	if !ok || node != 2 || d != 2 {
		t.Fatalf("second = (%d,%d,%v), want (2,2,true)", node, d, ok)
	}
	if s.Source() != 0 {
		t.Fatal("Source() wrong")
	}
	if s.Settled() == 0 {
		t.Fatal("Settled() = 0 after enumeration")
	}
}

// TestNNSearcherLargeGraph drains a searcher over a 2,500-node graph
// with every node a candidate and checks it against DijkstraCtx: the
// label table grows from labelMinSlots to hold every node, doubling at
// least seven times.
func TestNNSearcherLargeGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 2500
	g := randomGraph(rng, n, 2*n, 40)
	mask := make([]bool, n)
	for v := range mask {
		mask[v] = true
	}
	for _, src := range []int32{0, int32(rng.Intn(n))} {
		want := must(g.DijkstraCtx(context.Background(), src))
		s := NewNNSearcherCtx(context.Background(), g, src, mask)
		hits, err := drainSearcher(s)
		if err == nil {
			err = enumerationMismatch(hits, want, mask)
		}
		if err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
		if s.Settled() != n || s.dist.used != n {
			t.Fatalf("src %d: settled %d nodes with %d labels, want %d", src, s.Settled(), s.dist.used, n)
		}
		if len(s.dist.keys) < labelMinSlots<<7 || 4*s.dist.used > 3*len(s.dist.keys) {
			t.Fatalf("src %d: %d labels in %d slots, want at least %d slots at most 3/4 full",
				src, s.dist.used, len(s.dist.keys), labelMinSlots<<7)
		}
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(7, false)
	b.AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(3, 4, 1)
	// nodes 5, 6 isolated
	g, _ := b.Build()
	comp, count := g.Components()
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("nodes 0,1,2 not in one component")
	}
	if comp[3] != comp[4] {
		t.Fatal("nodes 3,4 not in one component")
	}
	if comp[5] == comp[6] || comp[5] == comp[0] || comp[6] == comp[3] {
		t.Fatal("isolated nodes share a component")
	}
	sizes := ComponentSizes(comp, count)
	sort.Ints(sizes)
	want := []int{1, 1, 2, 3}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

func TestComponentsDirectedWeak(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1, 1).AddEdge(2, 1, 1) // weakly connected via node 1
	g, _ := b.Build()
	comp, count := g.Components()
	if count != 1 {
		t.Fatalf("weak components = %d, want 1; labels %v", count, comp)
	}
}

func TestComponentsConsistentWithDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(50)
		// Build two disjoint random graphs merged into one id space.
		b := NewBuilder(2*n, false)
		for i := 1; i < n; i++ {
			b.AddEdge(int32(rng.Intn(i)), int32(i), 1+rng.Int63n(9))
			b.AddEdge(int32(n+rng.Intn(i)), int32(n+i), 1+rng.Int63n(9))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		comp, count := g.Components()
		if count != 2 {
			t.Fatalf("count = %d, want 2", count)
		}
		d := must(g.DijkstraCtx(context.Background(), 0))
		for v := 0; v < 2*n; v++ {
			reachable := d[v] < Inf
			sameComp := comp[v] == comp[0]
			if reachable != sameComp {
				t.Fatalf("node %d: reachable=%v sameComp=%v", v, reachable, sameComp)
			}
		}
	}
}

func TestCoordsAndEuclid(t *testing.T) {
	b := NewBuilder(2, false)
	b.AddEdge(0, 1, 5)
	b.SetCoords([]float64{0, 3}, []float64{0, 4})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasCoords() {
		t.Fatal("HasCoords false")
	}
	if x, y := g.Coord(1); x != 3 || y != 4 {
		t.Fatalf("Coord(1) = (%v,%v)", x, y)
	}
	if d := g.Euclid(0, 1); d != 5 {
		t.Fatalf("Euclid = %v, want 5", d)
	}
}

func TestGraphStats(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(0, 1, 10).AddEdge(1, 2, 20)
	g, _ := b.Build()
	if got := g.AvgEdgeWeight(); got != 15 {
		t.Fatalf("AvgEdgeWeight = %v, want 15", got)
	}
	if got := g.AvgDegree(); got != 4.0/3.0 {
		t.Fatalf("AvgDegree = %v", got)
	}
	if got := g.MaxDegree(); got != 2 {
		t.Fatalf("MaxDegree = %v, want 2", got)
	}
}

func BenchmarkDijkstraGrid(b *testing.B) {
	// 100x100 grid graph.
	const side = 100
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(g.DijkstraCtx(context.Background(), 0))
	}
}

func TestMultiSourceTwoNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(60)
		g := randomGraph(rng, n, 2*n, 20)
		ns := 2 + rng.Intn(5)
		perm := rng.Perm(n)
		sources := make([]int32, ns)
		for i := range sources {
			sources[i] = int32(perm[i])
		}
		owner, dist := g.MultiSourceTwoNearest(sources)
		// Reference: full Dijkstra per source.
		per := make([][]int64, ns)
		for i, s := range sources {
			per[i] = must(g.DijkstraCtx(context.Background(), s))
		}
		for v := 0; v < n; v++ {
			// Expected two best distinct sources.
			best1, best2 := -1, -1
			for i := range sources {
				if per[i][v] >= Inf {
					continue
				}
				if best1 == -1 || per[i][v] < per[best1][v] {
					best2 = best1
					best1 = i
				} else if best2 == -1 || per[i][v] < per[best2][v] {
					best2 = i
				}
			}
			if best1 == -1 {
				if owner[0][v] != -1 {
					t.Fatalf("node %d unreachable but owner %d", v, owner[0][v])
				}
				continue
			}
			if dist[0][v] != per[best1][v] {
				t.Fatalf("trial %d node %d: first dist %d, want %d", trial, v, dist[0][v], per[best1][v])
			}
			if per[owner[0][v]][v] != per[best1][v] {
				t.Fatalf("trial %d node %d: first owner not optimal", trial, v)
			}
			if best2 == -1 {
				if owner[1][v] != -1 {
					t.Fatalf("node %d has no second source but owner %d", v, owner[1][v])
				}
				continue
			}
			if dist[1][v] != per[best2][v] {
				t.Fatalf("trial %d node %d: second dist %d, want %d", trial, v, dist[1][v], per[best2][v])
			}
			if owner[1][v] == owner[0][v] {
				t.Fatalf("trial %d node %d: duplicate owners", trial, v)
			}
		}
	}
}
