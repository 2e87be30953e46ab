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
// (pq.LazyHeap) whose superseded entries advance skips. The frontier is
// never a Dial wheel, even where bucketOK holds: the wheel's setup and
// empty-bucket scan cost O(maxW) per searcher however few nodes it
// settles, while a lazy heap costs nothing until its first push.
type NNSearcher struct {
	g      *Graph
	src    int32
	isCand []bool // shared, indexed by node id
	dist   labelTable
	heap   *pq.LazyHeap

	peekNode int32
	peekDist int64
	hasPeek  bool

	// ctx is polled every checkEvery heap pops of the resumed Dijkstra,
	// always before a pop, so the heap and labels are whole whenever it
	// fires. On cancellation the searcher stalls there: it records
	// ctx.Err() in err and reports exhaustion until SetContext installs
	// a live context, which resumes the search where it stopped.
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
		heap:   pq.NewLazy(),
	}
	s.dist.improve(src, 0)
	s.heap.Push(src, 0)
	s.advance()
	return s
}

// Source returns the searcher's source node.
func (s *NNSearcher) Source() int32 { return s.src }

// SetContext replaces the searcher's cooperative-cancellation context
// (non-nil): subsequent advances poll it every checkEvery heap pops. A
// searcher stalled by a cancellation resumes at once when ctx is live,
// exactly where it stopped, so its candidates and their order are those
// of an uninterrupted search.
func (s *NNSearcher) SetContext(ctx context.Context) {
	s.ctx = ctx
	if s.err != nil {
		s.resume() // kept out of line, so SetContext inlines on the hot path
	}
}

// resume restarts a stalled search where it stopped if ctx is live.
func (s *NNSearcher) resume() {
	if s.ctx.Err() == nil {
		s.err = nil
		s.advance()
	}
}

// Err returns the context error that stalled the searcher, or nil.
// While non-nil, Peek/Next report exhaustion without the search space
// actually being exhausted; SetContext with a live context resumes it.
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
// settled, storing it as the new peek, or until ctx fires.
func (s *NNSearcher) advance() {
	s.hasPeek = false
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
				s.heap.Push(u, nd)
			}
		}
		if s.isCand[v] {
			s.peekNode, s.peekDist, s.hasPeek = v, d, true
			return
		}
	}
}
