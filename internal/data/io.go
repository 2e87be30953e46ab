package data

import (
	"bufio"
	"fmt"
	"io"
	"math"

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
// Lines starting with '#' are comments and ignored. Every count must lie
// in [0, 2^31-1], the range of node ids, and a graph of more than 2^16
// nodes needs an edge per 16 nodes. No slice is sized from a count
// before the lines it declares are read, and the n nodes, which have no
// lines of their own without coordinates, are built only once their
// edge lines are, so a short file cannot make the reader allocate much.

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
	// One line per edge: an undirected edge's arc with v <= u.
	var err error
	dimacsArcs(in.G, func(v, u int32, w int64) bool {
		if in.G.Directed() || v <= u {
			_, err = fmt.Fprintf(bw, "%d %d %d\n", v, u, w)
		}
		return err == nil
	})
	if err != nil {
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

// countOK reports whether a declared count lies in [0, math.MaxInt32].
func countOK(c int) bool { return c >= 0 && c <= math.MaxInt32 }

// edgesBack returns an error unless m edges back a graph of n nodes: up
// to 1<<16 nodes any m does, past that it takes an edge per 16 nodes.
// Building a graph allocates about 12 bytes per node however short the
// file, while every edge costs the file a line, so this bounds what a
// short file can make a reader allocate. A road network has more edges
// than nodes.
func edgesBack(n, m int) error {
	if n <= 1<<16 || n/16 <= m {
		return nil
	}
	return fmt.Errorf("data: %d nodes with %d edges: past %d nodes a graph needs an edge per 16 nodes", n, m, 1<<16)
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
	if _, err := fmt.Sscanf(line, "graph %d %d %d %d", &n, &m, &directed, &coords); err != nil || !countOK(n) || !countOK(m) {
		return nil, fmt.Errorf("data: bad graph line %q", line)
	}
	if err := edgesBack(n, m); err != nil {
		return nil, err
	}
	b := graph.NewBuilder(n, directed == 1)
	if coords == 1 {
		var xs, ys []float64
		for i := 0; i < n; i++ {
			line, err = next()
			if err != nil {
				return nil, err
			}
			var x, y float64
			if _, err := fmt.Sscanf(line, "%g %g", &x, &y); err != nil {
				return nil, fmt.Errorf("data: bad coord line %q", line)
			}
			xs, ys = append(xs, x), append(ys, y)
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
	if _, err := fmt.Sscanf(line, "customers %d", &count); err != nil || !countOK(count) {
		return nil, fmt.Errorf("data: bad customers line %q", line)
	}
	var customers []int32
	for i := 0; i < count; i++ {
		line, err = next()
		if err != nil {
			return nil, err
		}
		var c int32
		if _, err := fmt.Sscanf(line, "%d", &c); err != nil {
			return nil, fmt.Errorf("data: bad customer line %q", line)
		}
		customers = append(customers, c)
	}

	line, err = next()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(line, "facilities %d", &count); err != nil || !countOK(count) {
		return nil, fmt.Errorf("data: bad facilities line %q", line)
	}
	var facilities []Facility
	for i := 0; i < count; i++ {
		line, err = next()
		if err != nil {
			return nil, err
		}
		var f Facility
		if _, err := fmt.Sscanf(line, "%d %d", &f.Node, &f.Capacity); err != nil {
			return nil, fmt.Errorf("data: bad facility line %q", line)
		}
		facilities = append(facilities, f)
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
