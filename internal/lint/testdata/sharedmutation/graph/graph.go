// Package graph is the fixture stand-in for the module's graph layer.
package graph

// Graph mirrors the shape that matters to the rule: a named type in a
// package whose import path ends in "graph", carrying reference fields.
type Graph struct {
	N   int
	Adj [][]int64
}

// Clone returns a deep copy; the rule treats its result as owned.
func (g *Graph) Clone() *Graph {
	adj := make([][]int64, len(g.Adj))
	for i, row := range g.Adj {
		adj[i] = append([]int64(nil), row...)
	}
	return &Graph{N: g.N, Adj: adj}
}

// Scale writes through its parameter: a cell passing it a shared graph
// is reported at the write here, in the callee's package.
func Scale(g *Graph, f int64) {
	g.Adj[0][0] = f // want "element write into a pool-shared backing array"
}

// Reset writes through its receiver, inside two nested ranges; the
// write is reported once.
func (g *Graph) Reset() {
	for i := range g.Adj {
		for j := range g.Adj[i] {
			g.Adj[i][j] = 0 // want "element write into a pool-shared backing array"
		}
	}
}

// WithN returns a copy with N replaced. A value receiver is a copy, so
// writing its field writes nothing the caller shares.
func (g Graph) WithN(n int) Graph {
	g.N = n
	return g
}

// Degree only reads: no finding.
func Degree(g *Graph, i int) int {
	return len(g.Adj[i])
}

// View returns its parameter unchanged, so the caller's provenance
// survives the call.
func View(g *Graph) *Graph {
	return g
}

// Row returns a row of its parameter's adjacency: shared with the
// caller's graph, though a []int64 is no tracked type.
func Row(g *Graph, i int) []int64 {
	return g.Adj[i]
}
