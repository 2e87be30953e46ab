package data

import (
	"bufio"
	"fmt"
	"io"

	"mcfs/internal/graph"
)

// The text instance format, version 1:
//
//	mcfs 1
//	graph <n> <m> <directed:0|1> <coords:0|1>
//	[<x> <y>          × n, if coords]
//	<u> <v> <w>       × m
//	customers <count>
//	<node>            × count
//	facilities <count>
//	<node> <capacity> × count
//	k <k>
//
// Lines starting with '#' are comments and ignored.

// WriteInstance serializes an instance in the text format.
func WriteInstance(w io.Writer, in *Instance) error {
	bw := bufio.NewWriter(w)
	coords := 0
	if in.G.HasCoords() {
		coords = 1
	}
	directed := 0
	if in.G.Directed() {
		directed = 1
	}
	fmt.Fprintln(bw, "mcfs 1")
	fmt.Fprintf(bw, "graph %d %d %d %d\n", in.G.N(), in.G.M(), directed, coords)
	if coords == 1 {
		for v := int32(0); v < int32(in.G.N()); v++ {
			x, y := in.G.Coord(v)
			fmt.Fprintf(bw, "%g %g\n", x, y)
		}
	}
	if err := writeEdges(bw, in.G); err != nil {
		return err
	}
	fmt.Fprintf(bw, "customers %d\n", len(in.Customers))
	for _, s := range in.Customers {
		fmt.Fprintln(bw, s)
	}
	fmt.Fprintf(bw, "facilities %d\n", len(in.Facilities))
	for _, f := range in.Facilities {
		fmt.Fprintf(bw, "%d %d\n", f.Node, f.Capacity)
	}
	fmt.Fprintf(bw, "k %d\n", in.K)
	return bw.Flush()
}

// writeEdges emits each logical edge once. For undirected graphs the CSR
// holds both arcs of every edge, a self-loop's included: emit only arcs
// with u <= v, and only one of each self-loop's two.
func writeEdges(w io.Writer, g *graph.Graph) error {
	if g.Directed() {
		for v := int32(0); v < int32(g.N()); v++ {
			var err error
			g.Neighbors(v, func(u int32, wt int64) bool {
				_, err = fmt.Fprintf(w, "%d %d %d\n", v, u, wt)
				return err == nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	// Undirected: parallel edges between the same pair are preserved by
	// emitting every arc with v < u, plus half of the v == u arcs. The
	// builder stores a self-loop's two arcs next to each other, so every
	// second one is the copy.
	for v := int32(0); v < int32(g.N()); v++ {
		var err error
		loops := 0
		g.Neighbors(v, func(u int32, wt int64) bool {
			if u == v {
				loops++
				if loops%2 == 0 {
					return true
				}
			}
			if v <= u {
				_, err = fmt.Fprintf(w, "%d %d %d\n", v, u, wt)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadInstance parses the text format.
func ReadInstance(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	next := func() (string, error) {
		for sc.Scan() {
			line := sc.Text()
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			return line, nil
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}

	line, err := next()
	if err != nil {
		return nil, err
	}
	var version int
	if _, err := fmt.Sscanf(line, "mcfs %d", &version); err != nil || version != 1 {
		return nil, fmt.Errorf("data: bad header %q", line)
	}

	line, err = next()
	if err != nil {
		return nil, err
	}
	var n, m, directed, coords int
	if _, err := fmt.Sscanf(line, "graph %d %d %d %d", &n, &m, &directed, &coords); err != nil {
		return nil, fmt.Errorf("data: bad graph line %q", line)
	}
	b := graph.NewBuilder(n, directed == 1)
	if coords == 1 {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			line, err = next()
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Sscanf(line, "%g %g", &xs[i], &ys[i]); err != nil {
				return nil, fmt.Errorf("data: bad coord line %q", line)
			}
		}
		b.SetCoords(xs, ys)
	}
	for e := 0; e < m; e++ {
		line, err = next()
		if err != nil {
			return nil, err
		}
		var u, v int32
		var w int64
		if _, err := fmt.Sscanf(line, "%d %d %d", &u, &v, &w); err != nil {
			return nil, fmt.Errorf("data: bad edge line %q", line)
		}
		b.AddEdge(u, v, w)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}

	line, err = next()
	if err != nil {
		return nil, err
	}
	var count int
	if _, err := fmt.Sscanf(line, "customers %d", &count); err != nil {
		return nil, fmt.Errorf("data: bad customers line %q", line)
	}
	customers := make([]int32, count)
	for i := 0; i < count; i++ {
		line, err = next()
		if err != nil {
			return nil, err
		}
		if _, err := fmt.Sscanf(line, "%d", &customers[i]); err != nil {
			return nil, fmt.Errorf("data: bad customer line %q", line)
		}
	}

	line, err = next()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(line, "facilities %d", &count); err != nil {
		return nil, fmt.Errorf("data: bad facilities line %q", line)
	}
	facilities := make([]Facility, count)
	for i := 0; i < count; i++ {
		line, err = next()
		if err != nil {
			return nil, err
		}
		if _, err := fmt.Sscanf(line, "%d %d", &facilities[i].Node, &facilities[i].Capacity); err != nil {
			return nil, fmt.Errorf("data: bad facility line %q", line)
		}
	}

	line, err = next()
	if err != nil {
		return nil, err
	}
	var k int
	if _, err := fmt.Sscanf(line, "k %d", &k); err != nil {
		return nil, fmt.Errorf("data: bad k line %q", line)
	}

	in := &Instance{G: g, Customers: customers, Facilities: facilities, K: k}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}
