package data

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mcfs/internal/graph"
)

// must unwraps a call that cannot fail under an uncancelled context.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

const sampleGR = `c tiny road network
p sp 4 6
a 1 2 10
a 2 1 10
a 2 3 20
a 3 2 20
a 3 4 5
a 4 3 5
`

const sampleCO = `c coords
p aux sp co 4
v 1 0 0
v 2 10 0
v 3 10 20
v 4 15 20
`

func TestReadDIMACSUndirected(t *testing.T) {
	g, err := ReadDIMACSGraph(strings.NewReader(sampleGR), strings.NewReader(sampleCO), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want 4/3", g.N(), g.M())
	}
	if g.Directed() {
		t.Fatal("undirected graph marked directed")
	}
	d := must(g.DijkstraCtx(context.Background(), 0))
	if d[3] != 35 {
		t.Fatalf("dist 1→4 = %d, want 35", d[3])
	}
	if !g.HasCoords() {
		t.Fatal("coordinates lost")
	}
	if x, y := g.Coord(3); x != 15 || y != 20 {
		t.Fatalf("coord(4) = (%v,%v)", x, y)
	}
}

func TestReadDIMACSDirected(t *testing.T) {
	// Asymmetric: drop the reverse of one arc.
	gr := `p sp 3 3
a 1 2 7
a 2 1 9
a 2 3 1
`
	g, err := ReadDIMACSGraph(strings.NewReader(gr), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() {
		t.Fatal("directed graph not marked directed")
	}
	if d := must(g.DijkstraCtx(context.Background(), 0)); d[2] != 8 {
		t.Fatalf("dist 1→3 = %d, want 8", d[2])
	}
	if d := must(g.DijkstraCtx(context.Background(), 2)); d[0] < graph.Inf {
		t.Fatalf("node 3 should not reach node 1, got %d", d[0])
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	cases := []string{
		"",                     // no problem line
		"p sp 2 1\n",           // missing arcs
		"a 1 2 3\n",            // arc before problem line
		"p sp 2 1\na 1 5 3\n",  // endpoint out of range
		"p sp 2 1\nx nope\n",   // unknown line
		"p sp 2 1\na 1 2\n",    // malformed arc
		"p sp 2 2\na 1 2 3\n",  // arc count mismatch
		"p sp 2 1\np sp 2 1\n", // duplicate problem line
		"p sp -1 0\n",          // negative node count
		"p sp 4294967298 0\n",  // node count past int32
		"p sp 2 -1\n",          // negative arc count
	}
	// Every case must fail whether or not a coordinate file comes along:
	// coordinates are read only after the problem line and the arcs
	// check out.
	for i, src := range cases {
		if _, err := ReadDIMACSGraph(strings.NewReader(src), nil, false); err == nil {
			t.Fatalf("case %d accepted: %q", i, src)
		}
		if _, err := ReadDIMACSGraph(strings.NewReader(src), strings.NewReader("p aux sp co 0\n"), false); err == nil {
			t.Fatalf("case %d accepted with coordinates: %q", i, src)
		}
	}
}

// TestNodeCountNeedsEdges: past 2^16 nodes a graph needs an edge per 16
// nodes in both formats, so a one-line header cannot make a reader build
// millions of nodes (a 57-byte instance declaring 10^7 nodes once
// allocated 121 MB); at the bound the graph is read. In undirected
// DIMACS mode only kept arcs count, so a rewrite reads back the same.
func TestNodeCountNeedsEdges(t *testing.T) {
	instance := func(n, m int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "mcfs 1\ngraph %d %d 0 0\n", n, m)
		for i := 0; i < m; i++ {
			fmt.Fprintf(&b, "%d %d 1\n", i, i+1)
		}
		b.WriteString("customers 0\nfacilities 0\nk 0\n")
		return b.String()
	}
	dimacs := func(n, m int, reversed bool) string {
		var b strings.Builder
		fmt.Fprintf(&b, "p sp %d %d\n", n, m)
		for i := 1; i <= m; i++ {
			if reversed {
				fmt.Fprintf(&b, "a %d %d 1\n", i+1, i)
			} else {
				fmt.Fprintf(&b, "a %d %d 1\n", i, i+1)
			}
		}
		return b.String()
	}
	for _, c := range []struct {
		n, m int
		ok   bool
	}{
		{1 << 16, 0, true},
		{1<<16 + 1, 0, false},
		{80000, 5000, true},
		{80000, 4999, false},
		{10_000_000, 0, false},
	} {
		_, err := ReadInstance(strings.NewReader(instance(c.n, c.m)))
		if (err == nil) != c.ok {
			t.Errorf("instance of %d nodes, %d edges: err = %v, want accepted %v", c.n, c.m, err, c.ok)
		}
		for _, undirected := range []bool{false, true} {
			_, err = ReadDIMACSGraph(strings.NewReader(dimacs(c.n, c.m, false)), nil, undirected)
			if (err == nil) != c.ok {
				t.Errorf("DIMACS graph of %d nodes, %d arcs, undirected %v: err = %v, want accepted %v", c.n, c.m, undirected, err, c.ok)
			}
		}
	}
	if _, err := ReadDIMACSGraph(strings.NewReader(dimacs(80000, 5000, true)), nil, true); err == nil {
		t.Error("undirected DIMACS graph of 80000 nodes whose 5000 arcs all run u > v (no kept edge) accepted")
	}
}

func TestReadDIMACSCoordErrors(t *testing.T) {
	gr := "p sp 2 1\na 1 2 3\n"
	cases := []string{
		"v 1 0 0\n",          // missing node 2
		"v 9 0 0\nv 2 1 1\n", // id out of range
		"w 1 0 0\n",          // unknown line
		"v 1 0\nv 2 1 1\n",   // malformed
	}
	for i, co := range cases {
		if _, err := ReadDIMACSGraph(strings.NewReader(gr), strings.NewReader(co), false); err == nil {
			t.Fatalf("case %d accepted: %q", i, co)
		}
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	g, err := ReadDIMACSGraph(strings.NewReader(sampleGR), strings.NewReader(sampleCO), true)
	if err != nil {
		t.Fatal(err)
	}
	var grBuf, coBuf bytes.Buffer
	if err := WriteDIMACSGraph(&grBuf, &coBuf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDIMACSGraph(&grBuf, &coBuf, true)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip changed sizes: %d/%d vs %d/%d", back.N(), back.M(), g.N(), g.M())
	}
	if !slices.Equal(must(g.DijkstraCtx(context.Background(), 0)), must(back.DijkstraCtx(context.Background(), 0))) {
		t.Fatal("round trip changed distances")
	}
}
