package graph

import (
	"sync/atomic"

	"mcfs/internal/pq"
)

// QueueMode selects the frontier priority queue the graph searches use.
// The default, QueueAuto, applies a per-graph heuristic; the explicit
// modes exist so benchmarks and the determinism cross-checks can force
// either implementation. All modes produce byte-identical search
// results — the pq package pins equal-key pop order across its
// implementations (see pq.Monotone).
type QueueMode int32

const (
	// QueueAuto picks a Dial bucket queue when the graph's weight range
	// makes the wheel affordable, and a binary heap otherwise.
	QueueAuto QueueMode = iota
	// QueueHeap forces the binary heaps (DenseHeap / SparseHeap).
	QueueHeap
	// QueueBucket forces the Dial bucket queue regardless of weight
	// range (wide ranges fall back to its overflow path).
	QueueBucket
)

// queueMode is the process-wide override; atomic so benchmarks can flip
// it while tests run in parallel elsewhere.
var queueMode atomic.Int32

// SetQueueMode installs a process-wide frontier-queue override and
// returns the previous mode. Intended for benchmarks (cmd/mcfsperf
// -queue) and cross-implementation tests; production callers leave the
// default QueueAuto.
func SetQueueMode(m QueueMode) QueueMode {
	return QueueMode(queueMode.Swap(int32(m)))
}

// CurrentQueueMode reports the active override.
func CurrentQueueMode() QueueMode { return QueueMode(queueMode.Load()) }

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
// override selects it, else a DenseHeap over [0, N).
func (g *Graph) newDenseQueue() pq.Monotone {
	switch CurrentQueueMode() {
	case QueueHeap:
		return pq.NewDense(g.N())
	case QueueBucket:
		return pq.NewBucket(g.maxW)
	}
	if g.bucketOK() {
		return pq.NewBucket(g.maxW)
	}
	return pq.NewDense(g.N())
}

// newIncrementalQueue returns the frontier queue for incremental
// searches that advance a few pops at a time and may stop early
// (NNSearcher). The bucket queue loses there even when bucketOK holds:
// wheel setup and empty-bucket scanning cost O(maxW) per searcher
// regardless of how few nodes it settles, and a matcher creates one
// searcher per customer — so QueueAuto stays on the sparse heap and the
// bucket applies only when forced (the cross-implementation tests rely
// on QueueBucket still reaching this path).
func (g *Graph) newIncrementalQueue() pq.Monotone {
	if CurrentQueueMode() == QueueBucket {
		return pq.NewBucket(g.maxW)
	}
	return pq.NewSparse()
}
