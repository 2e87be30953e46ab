package data

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"mcfs/internal/graph"
)

// declared returns the two counts of the first line of input that
// format (two %d verbs) matches, or zeros. For an input the parser
// accepts, that line is its graph or problem line.
func declared(input, format string) (n, m int) {
	for _, line := range strings.Split(input, "\n") {
		var a, b int
		if _, err := fmt.Sscanf(strings.TrimSuffix(line, "\r"), format, &a, &b); err == nil {
			return a, b
		}
	}
	return 0, 0
}

// FuzzReadInstance checks that the parser never panics on arbitrary
// input, that an accepted graph has the node and edge counts its graph
// line declares, and that everything it accepts round-trips losslessly.
func FuzzReadInstance(f *testing.F) {
	f.Add("mcfs 1\ngraph 2 1 0 0\n0 1 5\ncustomers 1\n0\nfacilities 1\n1 3\nk 1\n")
	f.Add("mcfs 1\ngraph 3 2 1 1\n0 0\n1 1\n2 2\n0 1 5\n1 2 7\ncustomers 0\nfacilities 0\nk 0\n")
	f.Add("# comment\nmcfs 1\ngraph 0 0 0 0\ncustomers 0\nfacilities 0\nk 0\n")
	f.Add("mcfs 2\n")
	f.Add("garbage")
	f.Add("mcfs 1\ngraph 1 0 0 0\ncustomers 1\n-9\nfacilities 0\nk 0\n")
	// Counts the parser once panicked on (the first three) or misread.
	f.Add("mcfs 1\ngraph 1 0 0 0\ncustomers -1\nfacilities 0\nk 0\n")
	f.Add("mcfs 1\ngraph 1 0 0 0\ncustomers 0\nfacilities -3\nk 0\n")
	f.Add("mcfs 1\ngraph -1 0 0 1\ncustomers 0\nfacilities 0\nk 0\n")
	f.Add("mcfs 1\ngraph 4294967298 0 0 0\ncustomers 0\nfacilities 0\nk 0\n")
	f.Add("mcfs 1\ngraph 1 -5 0 0\ncustomers 0\nfacilities 0\nk 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		n, m := declared(input, "graph %d %d")
		inst, err := ReadInstance(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if inst.G.N() != n || inst.G.M() != m {
			t.Fatalf("graph line declares %d nodes and %d edges; parser built %d and %d", n, m, inst.G.N(), inst.G.M())
		}
		// Accepted instances must be valid and survive a round trip.
		if verr := inst.Validate(); verr != nil {
			t.Fatalf("parser accepted invalid instance: %v", verr)
		}
		var buf bytes.Buffer
		if werr := WriteInstance(&buf, inst); werr != nil {
			t.Fatalf("rewrite failed: %v", werr)
		}
		again, rerr := ReadInstance(&buf)
		if rerr != nil {
			t.Fatalf("round trip failed: %v", rerr)
		}
		if again.M() != inst.M() || again.L() != inst.L() || again.K != inst.K ||
			again.G.N() != inst.G.N() || again.G.M() != inst.G.M() {
			t.Fatal("round trip changed the instance")
		}
	})
}

// FuzzReadDIMACSGraph fuzzes the .gr text, the .co text (empty means
// none) and the undirected flag. The parser must never panic, an
// accepted graph must have the node count its problem line declares,
// and a WriteDIMACSGraph round trip must give back the same graph: the
// same arcs at every node and the same coordinates.
func FuzzReadDIMACSGraph(f *testing.F) {
	f.Add("p sp 3 4\na 1 2 5\na 2 1 5\na 2 3 7\na 3 2 7\n", "p aux sp co 3\nv 1 0 0\nv 2 1.5 -2\nv 3 2 2\n", true)
	f.Add("c road\np sp 3 3\na 1 2 5\na 2 3 7\na 3 1 2\n", "", false)
	// An undirected self-loop, which WriteDIMACSGraph once wrote as two
	// arcs, so the reread graph had two loops.
	f.Add("p sp 2 2\na 1 1 4\na 2 1 3\n", "", true)
	// Problem lines the parser once panicked on or misread.
	f.Add("p sp -1 0\n", "", false)
	f.Add("p sp 4294967298 0\n", "p aux sp co 0\n", false)
	f.Add("p sp 2 -1\n", "", true)
	f.Fuzz(func(t *testing.T, gr, co string, undirected bool) {
		n, _ := declared(gr, "p sp %d %d")
		var coIn io.Reader
		if co != "" {
			coIn = strings.NewReader(co)
		}
		g, err := ReadDIMACSGraph(strings.NewReader(gr), coIn, undirected)
		if err != nil {
			return
		}
		if g.N() != n {
			t.Fatalf("problem line declares %d nodes; parser built %d", n, g.N())
		}
		var grBuf, coBuf bytes.Buffer
		if err := WriteDIMACSGraph(&grBuf, &coBuf, g); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		coIn = nil
		if g.HasCoords() {
			coIn = &coBuf
		}
		again, err := ReadDIMACSGraph(&grBuf, coIn, undirected)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if err := sameGraph(g, again); err != nil {
			t.Fatalf("round trip changed the graph: %v", err)
		}
	})
}

// sameGraph reports how b differs from a: node, edge or arc counts,
// direction, coordinates, or the multiset of arcs at some node.
func sameGraph(a, b *graph.Graph) error {
	if a.N() != b.N() || a.M() != b.M() || a.Directed() != b.Directed() || a.HasCoords() != b.HasCoords() {
		return fmt.Errorf("n %d/%d, m %d/%d, directed %v/%v, coords %v/%v",
			a.N(), b.N(), a.M(), b.M(), a.Directed(), b.Directed(), a.HasCoords(), b.HasCoords())
	}
	for v := int32(0); v < int32(a.N()); v++ {
		if x, y := arcsAt(a, v), arcsAt(b, v); !slices.Equal(x, y) {
			return fmt.Errorf("node %d: arcs %v, then %v", v, x, y)
		}
		if !a.HasCoords() {
			continue
		}
		ax, ay := a.Coord(v)
		bx, by := b.Coord(v)
		if !sameFloat(ax, bx) || !sameFloat(ay, by) {
			return fmt.Errorf("node %d: coordinates (%g, %g), then (%g, %g)", v, ax, ay, bx, by)
		}
	}
	return nil
}

// arcsAt returns v's outgoing arcs as "head weight" strings, sorted, so
// graphs that differ only in adjacency order compare equal.
func arcsAt(g *graph.Graph, v int32) []string {
	var out []string
	g.Neighbors(v, func(u int32, w int64) bool {
		out = append(out, fmt.Sprintf("%d %d", u, w))
		return true
	})
	slices.Sort(out)
	return out
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
