package graph

import (
	"context"

	"mcfs/internal/pq"
)

// NNSearcher enumerates candidate nodes in nondecreasing shortest-path
// distance from a fixed source, resuming a persistent Dijkstra instance
// between calls. This is the "one Dijkstra execution per customer,
// yielding distances to candidate facilities in non-decreasing order"
// of the paper (§IV-D); the heap persists across FindPair calls (§VI).
//
// The searcher always pre-fetches one candidate, so Peek returns the
// exact weight of the next candidate bipartite edge — the nnDist of
// Algorithm 2, line 10 — without consuming it.
//
// A matcher keeps one searcher per customer and most advance only a
// few pops, so a searcher's state grows with the nodes it reaches, not
// with the graph, and holds no Go map: its labels live in an
// open-addressing table (labelTable) and its frontier is a lazy heap
// (pq.LazyHeap) whose superseded entries advance skips.
type NNSearcher struct {
	g      *Graph
	src    int32
	isCand []bool // shared, indexed by node id
	dist   labelTable
	heap   pq.Monotone // incremental frontier (see Graph.newIncrementalQueue)

	peekNode int32
	peekDist int64
	hasPeek  bool

	// ctx is polled every checkEvery heap pops of the resumed Dijkstra;
	// on cancellation the searcher stops, records ctx.Err() in err, and
	// reports exhaustion. A cancelled searcher is poisoned: the
	// interrupted expansion cannot be resumed correctly.
	ctx  context.Context
	err  error
	pops int

	settledCount int // diagnostic: nodes settled so far
}

// NewNNSearcherCtx returns a searcher from src over candidates marked
// true in isCand. The isCand slice is shared (not copied); it must not
// change while the searcher is in use. ctx, which must be non-nil, is
// installed before the initial candidate prefetch, so even the first
// expansion is interruptible.
func NewNNSearcherCtx(ctx context.Context, g *Graph, src int32, isCand []bool) *NNSearcher {
	s := &NNSearcher{
		g:      g,
		src:    src,
		isCand: isCand,
		ctx:    ctx,
		dist:   newLabelTable(),
		heap:   g.newIncrementalQueue(),
	}
	s.dist.improve(src, 0)
	s.heap.Push(src, 0)
	s.advance()
	return s
}

// Source returns the searcher's source node.
func (s *NNSearcher) Source() int32 { return s.src }

// SetContext replaces the searcher's cooperative-cancellation context
// (non-nil): subsequent advances poll it every checkEvery heap pops.
// Once a searcher has observed a cancellation it stays exhausted; see
// Err.
func (s *NNSearcher) SetContext(ctx context.Context) { s.ctx = ctx }

// Err returns the context error that interrupted the searcher, or nil.
// When non-nil, Peek/Next report exhaustion without the search space
// actually being exhausted, and the searcher must not be reused.
func (s *NNSearcher) Err() error { return s.err }

// Peek returns the next candidate node and its distance without
// consuming it; ok is false once the search space is exhausted.
func (s *NNSearcher) Peek() (node int32, dist int64, ok bool) {
	return s.peekNode, s.peekDist, s.hasPeek
}

// PeekDist returns the distance to the next candidate, or Inf when
// exhausted. It is the nnDist term of the Theorem-1 pruning threshold.
func (s *NNSearcher) PeekDist() int64 {
	if !s.hasPeek {
		return Inf
	}
	return s.peekDist
}

// Next consumes and returns the next candidate in nondecreasing distance
// order; ok is false once exhausted.
func (s *NNSearcher) Next() (node int32, dist int64, ok bool) {
	if !s.hasPeek {
		return 0, Inf, false
	}
	node, dist = s.peekNode, s.peekDist
	s.advance()
	return node, dist, true
}

// Settled returns the number of nodes settled by the underlying Dijkstra
// so far (a measure of explored network region).
func (s *NNSearcher) Settled() int { return s.settledCount }

// advance resumes Dijkstra until the next unreturned candidate is
// settled, storing it as the new peek.
func (s *NNSearcher) advance() {
	s.hasPeek = false
	if s.err != nil {
		return
	}
	g := s.g
	for s.heap.Len() > 0 {
		if s.pops++; s.pops&(checkEvery-1) == 0 {
			if err := s.ctx.Err(); err != nil {
				s.err = err
				return
			}
		}
		v, d := s.heap.PopMin()
		if d > s.dist.get(v) {
			continue // superseded entry
		}
		s.settledCount++
		for i := g.off[v]; i < g.off[v+1]; i++ {
			if u, nd := g.dst[i], d+g.w[i]; s.dist.improve(u, nd) {
				s.heap.DecreaseKey(u, nd)
			}
		}
		if s.isCand[v] {
			s.peekNode, s.peekDist, s.hasPeek = v, d, true
			return
		}
	}
}
