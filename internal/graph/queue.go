package graph

import "mcfs/internal/pq"

// queueKind selects the frontier priority queue a graph's searches use.
// Every kind produces byte-identical search results — the pq package
// pins equal-key pop order across its two queues (see pq.Monotone) —
// so production graphs keep queueAuto; only this package's tests force
// the other two, on a copy of a graph.
type queueKind uint8

const (
	// queueAuto picks a Dial bucket queue for whole-graph searches when
	// the graph's weight range makes the wheel affordable, and the lazy
	// binary heap otherwise; NNSearcher always gets the lazy heap.
	queueAuto queueKind = iota
	// queueHeap forces the lazy binary heap on every search.
	queueHeap
	// queueBucket forces the Dial bucket queue on every search
	// regardless of weight range (wide ranges fall back to its overflow
	// path).
	queueBucket
)

// maxWheel caps the Dial wheel size: beyond ~1M buckets the wheel's
// memory and cache footprint outweighs the log factor it saves.
const maxWheel = 1 << 20

// bucketOK is the queue-selection heuristic: a bucket wheel needs
// maxW+1 buckets, which is worth it only while that stays within a
// small multiple of the node count (the wheel must not dominate the
// search's own O(N) state) and below an absolute cap.
func (g *Graph) bucketOK() bool {
	if g.maxW <= 0 {
		return false
	}
	nb := g.maxW + 1
	return nb <= int64(4*g.N())+1024 && nb <= maxWheel
}

// newDenseQueue returns the frontier queue for whole-graph searches
// (dense distance arrays): a Dial bucket queue when the heuristic or
// the graph's forced kind selects it, else a LazyHeap.
func (g *Graph) newDenseQueue() pq.Monotone {
	if g.queue == queueBucket || (g.queue == queueAuto && g.bucketOK()) {
		return pq.NewBucket(g.maxW)
	}
	return pq.NewLazy()
}

// newIncrementalQueue returns the frontier queue for incremental
// searches that advance a few pops at a time and may stop early
// (NNSearcher): a LazyHeap, whose state grows with the entries pushed.
// The bucket queue loses there even when bucketOK holds: wheel setup
// and empty-bucket scanning cost O(maxW) per searcher regardless of how
// few nodes it settles, and a matcher creates one searcher per customer
// — so queueAuto stays on the lazy heap and the bucket applies only
// when forced (the cross-implementation tests rely on queueBucket still
// reaching this path).
func (g *Graph) newIncrementalQueue() pq.Monotone {
	if g.queue == queueBucket {
		return pq.NewBucket(g.maxW)
	}
	return pq.NewLazy()
}
