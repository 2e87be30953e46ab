package graph

import "mcfs/internal/pq"

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
// (dense distance arrays): a Dial bucket queue spanning the largest
// edge weight when bucketOK holds, else a LazyHeap. Both pop in the
// pinned order of pq.Monotone, so the choice never changes a result.
func (g *Graph) newDenseQueue() pq.Monotone {
	if g.bucketOK() {
		return pq.NewBucket(g.maxW)
	}
	return pq.NewLazy()
}
