// Package graph implements the weighted-network substrate of the MCFS
// system: a compact CSR adjacency representation, single- and
// multi-source Dijkstra, a resumable nearest-candidate enumerator
// (NNSearcher) used for lazy bipartite-edge materialization, and
// connected-component analysis.
//
// Node ids are int32 in [0, N). Edge weights are positive int64; the
// sentinel Inf is returned for unreachable nodes. Graphs may carry
// planar coordinates, used by the Hilbert baseline and the generators.
package graph

import (
	"errors"
	"fmt"
	"math"
)

// Inf is the distance reported for unreachable nodes. It is small enough
// that sums of a few Inf values do not overflow int64.
const Inf int64 = math.MaxInt64 / 4

// Edge is an input edge for Builder. For undirected graphs each Edge
// yields two arcs.
type Edge struct {
	From, To int32
	Weight   int64
}

// Graph is an immutable weighted graph in CSR form, optionally carrying
// node coordinates. Build one with a Builder.
//
// Goroutines share one Graph without locks (the bench harness's cells
// do), which holds because code outside this package cannot write one:
// Graph exports no field, no method writes a field, and no method
// returns one of its arrays. Keep all three when adding to it. Only a
// whole-value store through the pointer (*g = Graph{}) still compiles.
type Graph struct {
	off      []int32 // len N+1; arc indexes for node i are off[i]..off[i+1]
	dst      []int32
	w        []int64
	x, y     []float64 // optional coordinates, len N or nil
	directed bool
	numEdges int   // logical edge count (undirected edges counted once)
	maxW     int64 // largest edge weight; sizes the Dial bucket wheel
}

// Builder accumulates edges and produces a Graph.
type Builder struct {
	n        int32
	edges    []Edge
	directed bool
	x, y     []float64
}

// NewBuilder returns a builder for a graph with n nodes. If directed is
// false, every added edge is traversable in both directions.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{n: int32(n), directed: directed}
}

// SetCoords attaches planar coordinates; len(x) and len(y) must equal the
// node count.
func (b *Builder) SetCoords(x, y []float64) *Builder {
	b.x, b.y = x, y
	return b
}

// AddEdge adds an edge. Weight must be positive; endpoints must be valid
// node ids. Errors are reported by Build so call sites can chain adds.
func (b *Builder) AddEdge(from, to int32, weight int64) *Builder {
	b.edges = append(b.edges, Edge{from, to, weight})
	return b
}

// Build validates the accumulated edges and returns the CSR graph.
func (b *Builder) Build() (*Graph, error) {
	n := b.n
	if n < 0 {
		return nil, errors.New("graph: negative node count")
	}
	if b.x != nil && (len(b.x) != int(n) || len(b.y) != int(n)) {
		return nil, fmt.Errorf("graph: coords length %d,%d != node count %d", len(b.x), len(b.y), n)
	}
	var maxW int64
	for _, e := range b.edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("graph: edge (%d,%d) has non-positive weight %d", e.From, e.To, e.Weight)
		}
		if e.Weight >= Inf {
			return nil, fmt.Errorf("graph: edge (%d,%d) weight %d exceeds Inf", e.From, e.To, e.Weight)
		}
		if e.Weight > maxW {
			maxW = e.Weight
		}
	}
	arcs := len(b.edges)
	if !b.directed {
		arcs *= 2
	}
	deg := make([]int32, n+1)
	for _, e := range b.edges {
		deg[e.From+1]++
		if !b.directed {
			deg[e.To+1]++
		}
	}
	off := make([]int32, n+1)
	for i := int32(1); i <= n; i++ {
		off[i] = off[i-1] + deg[i]
	}
	dst := make([]int32, arcs)
	w := make([]int64, arcs)
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	put := func(from, to int32, wt int64) {
		p := cursor[from]
		dst[p], w[p] = to, wt
		cursor[from]++
	}
	for _, e := range b.edges {
		put(e.From, e.To, e.Weight)
		if !b.directed {
			put(e.To, e.From, e.Weight)
		}
	}
	return &Graph{
		off: off, dst: dst, w: w,
		x: b.x, y: b.y,
		directed: b.directed,
		numEdges: len(b.edges),
		maxW:     maxW,
	}, nil
}

// MaxEdgeWeight returns the largest edge weight (0 for an edgeless
// graph). It drives the frontier-queue selection heuristic: a Dial
// bucket wheel spans MaxEdgeWeight+1 buckets.
func (g *Graph) MaxEdgeWeight() int64 { return g.maxW }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of logical edges (undirected edges counted once).
func (g *Graph) M() int { return g.numEdges }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// HasCoords reports whether nodes carry planar coordinates.
func (g *Graph) HasCoords() bool { return g.x != nil }

// Coord returns node v's planar coordinates; HasCoords must be true.
func (g *Graph) Coord(v int32) (x, y float64) { return g.x[v], g.y[v] }

// Extent returns the bounding box of the node coordinates (all zero
// without nodes); HasCoords must be true.
func (g *Graph) Extent() (minX, maxX, minY, maxY float64) {
	for v := range g.x {
		x, y := g.x[v], g.y[v]
		if v == 0 || x < minX {
			minX = x
		}
		if v == 0 || x > maxX {
			maxX = x
		}
		if v == 0 || y < minY {
			minY = y
		}
		if v == 0 || y > maxY {
			maxY = y
		}
	}
	return minX, maxX, minY, maxY
}

// Degree returns the out-degree of v (arc count).
func (g *Graph) Degree(v int32) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors calls fn for every arc out of v until fn returns false.
func (g *Graph) Neighbors(v int32, fn func(to int32, w int64) bool) {
	for i := g.off[v]; i < g.off[v+1]; i++ {
		if !fn(g.dst[i], g.w[i]) {
			return
		}
	}
}

// AvgDegree returns the mean arc count per node.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return float64(len(g.dst)) / float64(g.N())
}

// MaxDegree returns the maximum arc count over all nodes.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(int32(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgEdgeWeight returns the mean logical edge weight.
func (g *Graph) AvgEdgeWeight() float64 {
	if len(g.w) == 0 {
		return 0
	}
	var sum int64
	for _, wt := range g.w {
		sum += wt
	}
	return float64(sum) / float64(len(g.w))
}

// Euclid returns the Euclidean distance between two nodes' coordinates;
// HasCoords must be true.
func (g *Graph) Euclid(a, b int32) float64 {
	dx := g.x[a] - g.x[b]
	dy := g.y[a] - g.y[b]
	return math.Hypot(dx, dy)
}
