// Package pq provides the priority queues behind the hot paths of
// Dijkstra's algorithm and the SSPA matching engine — a lazy binary
// heap and a monotone Dial bucket queue — plus a small generic heap for
// everything else.
//
// The specialized queues key items by int64 priorities and identify
// items by int32 ids, and both are lazy (see Monotone in bucket.go).
// LazyHeap suits any id range, from the few nodes an incremental
// Dijkstra touches in a huge graph to a whole-graph search; BucketQueue
// trades the log factor for a bucket wheel when keys are small positive
// integers.
//
// Determinism: both queues pin the same equal-key pop order — FIFO in
// key-update time; see the Monotone interface contract in bucket.go.
// LazyHeap stamps every push with a monotonically increasing sequence
// number and compares (key, seq); BucketQueue gets the order from its
// FIFO buckets. This is a deliberate tie-break pin (DESIGN.md §11): it
// makes solver output byte-identical no matter which queue a search
// selects.
package pq

// LazyHeap is a binary min-heap without addressing. It is the frontier
// of the incremental searches that touch few nodes of a large graph
// (graph.NNSearcher), of the whole-graph searches whose weight range
// rules out a bucket wheel, and of the SSPA matcher's inner search
// (bipartite.Matcher). It tracks no per-id position: a key decrease is
// another Push, and the superseded entry surfaces later from PopMin at
// its stale key, which the caller skips through its own distance
// labels, as with BucketQueue. Len counts queued entries, superseded
// ones included.
//
// Entries pop in (key, push order). Every push takes the next value of
// the heap's own counter, so the live entry of an id carries the stamp
// of its latest key change; that makes the filtered pop stream
// identical to BucketQueue's.
//
// An entry is 16 bytes: an int64 key, a uint32 push stamp and an int32
// id. The stamp keeps the order exact for 2^32 pushes between Resets. A
// Dijkstra search pushes once per strictly improving arc relaxation, so
// at most arcs+1 times, which stays below 2^31 because a graph's CSR
// offsets are int32.
type LazyHeap struct {
	entries []lazyEntry
	tick    uint32
}

// lazyEntry is one queued (id, key) pair and its push stamp.
type lazyEntry struct {
	key int64
	seq uint32
	id  int32
}

// before orders entries by (key, push stamp): equal keys pop FIFO.
func (e lazyEntry) before(f lazyEntry) bool {
	return e.key < f.key || (e.key == f.key && e.seq < f.seq)
}

// NewLazy returns an empty lazy heap.
func NewLazy() *LazyHeap { return &LazyHeap{} }

// Len reports the number of queued entries (superseded ones included).
func (h *LazyHeap) Len() int { return len(h.entries) }

// Push enqueues id at the given key. Pushing an id that is already
// queued leaves the earlier entry in place as a superseded duplicate.
func (h *LazyHeap) Push(id int32, key int64) {
	e := lazyEntry{key: key, seq: h.tick, id: id}
	h.tick++
	h.entries = append(h.entries, e)
	es := h.entries
	i := len(es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(es[parent]) {
			break
		}
		es[i] = es[parent]
		i = parent
	}
	es[i] = e
}

// PopMin removes and returns a minimum-key entry; among equal keys the
// earliest-pushed pops first. It must not be called on an empty heap.
func (h *LazyHeap) PopMin() (int32, int64) {
	es := h.entries
	top := es[0]
	last := len(es) - 1
	e := es[last]
	es = es[:last]
	h.entries = es
	if last == 0 {
		return top.id, top.key
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && es[r].before(es[c]) {
			c = r
		}
		if !es[c].before(e) {
			break
		}
		es[i] = es[c]
		i = c
	}
	es[i] = e
	return top.id, top.key
}

// Reset empties the heap, retaining capacity.
func (h *LazyHeap) Reset() {
	h.entries = h.entries[:0]
	h.tick = 0
}
