// Package pq provides the priority queues behind the hot paths of
// Dijkstra's algorithm and the SSPA matching engine — an addressable
// binary min-heap, a lazy binary heap and a monotone Dial bucket queue —
// plus a small generic heap for everything else.
//
// The specialized queues key items by int64 priorities and identify
// items by int32 ids. DenseHeap tracks positions in a slice and suits
// item ids drawn from a small dense range [0, n); LazyHeap tracks no
// positions and suits incremental Dijkstra instances that touch a tiny
// fraction of a huge graph; BucketQueue (bucket.go) trades the log
// factor for a bucket wheel when keys are small positive integers.
//
// Determinism: every queue in this package pins the same equal-key pop
// order — FIFO in key-update time; see the Monotone interface contract
// in bucket.go. DenseHeap enforces it by stamping each insert or key
// change with a monotonically increasing sequence number and comparing
// (key, seq); LazyHeap stamps every push, and a key change is a push.
// This is a deliberate tie-break pin (DESIGN.md §11): it makes solver
// output byte-identical no matter which queue implementation a search
// selects.
package pq

// DenseHeap is an addressable binary min-heap over item ids in [0, n).
// Among equal keys, the earliest-set key pops first. The zero value is
// not usable; call NewDense.
type DenseHeap struct {
	ids  []int32
	keys []int64
	seqs []int64 // key-update stamps: FIFO tie-break among equal keys
	pos  []int32 // pos[id] = index in ids, or -1 if absent
	tick int64
}

// NewDense returns a heap for item ids in [0, n).
func NewDense(n int) *DenseHeap {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &DenseHeap{pos: pos}
}

// Len reports the number of items in the heap.
func (h *DenseHeap) Len() int { return len(h.ids) }

// Contains reports whether id is currently in the heap.
func (h *DenseHeap) Contains(id int32) bool { return h.pos[id] >= 0 }

// Key returns the current key of id; it must be in the heap.
func (h *DenseHeap) Key(id int32) int64 { return h.keys[h.pos[id]] }

// less orders heap slots by (key, seq): equal keys pop FIFO.
func (h *DenseHeap) less(i, j int) bool {
	if h.keys[i] != h.keys[j] {
		return h.keys[i] < h.keys[j]
	}
	return h.seqs[i] < h.seqs[j]
}

// Push inserts id with the given key, or decreases/increases its key if
// already present. Any key change restamps the item's FIFO position.
func (h *DenseHeap) Push(id int32, key int64) {
	if p := h.pos[id]; p >= 0 {
		old := h.keys[p]
		if key == old {
			return
		}
		h.keys[p] = key
		h.seqs[p] = h.tick
		h.tick++
		if key < old {
			h.up(int(p))
		} else {
			h.down(int(p))
		}
		return
	}
	h.ids = append(h.ids, id)
	h.keys = append(h.keys, key)
	h.seqs = append(h.seqs, h.tick)
	h.tick++
	h.pos[id] = int32(len(h.ids) - 1)
	h.up(len(h.ids) - 1)
}

// DecreaseKey lowers id's key; it is a no-op if the new key is not lower
// or id is absent (in which case it inserts).
func (h *DenseHeap) DecreaseKey(id int32, key int64) {
	if p := h.pos[id]; p >= 0 {
		if key >= h.keys[p] {
			return
		}
		h.keys[p] = key
		h.seqs[p] = h.tick
		h.tick++
		h.up(int(p))
		return
	}
	h.Push(id, key)
}

// PeekMin returns the minimum item and key without removing it.
// It must not be called on an empty heap.
func (h *DenseHeap) PeekMin() (int32, int64) { return h.ids[0], h.keys[0] }

// PopMin removes and returns the minimum item and its key.
// It must not be called on an empty heap.
func (h *DenseHeap) PopMin() (int32, int64) {
	id, key := h.ids[0], h.keys[0]
	h.swap(0, len(h.ids)-1)
	h.pos[id] = -1
	h.ids = h.ids[:len(h.ids)-1]
	h.keys = h.keys[:len(h.keys)-1]
	h.seqs = h.seqs[:len(h.seqs)-1]
	if len(h.ids) > 0 {
		h.down(0)
	}
	return id, key
}

// Remove deletes id from the heap if present.
func (h *DenseHeap) Remove(id int32) {
	p := h.pos[id]
	if p < 0 {
		return
	}
	last := len(h.ids) - 1
	h.swap(int(p), last)
	h.pos[id] = -1
	h.ids = h.ids[:last]
	h.keys = h.keys[:last]
	h.seqs = h.seqs[:last]
	if int(p) < last {
		h.down(int(p))
		h.up(int(p))
	}
}

// Reset empties the heap, retaining capacity.
func (h *DenseHeap) Reset() {
	for _, id := range h.ids {
		h.pos[id] = -1
	}
	h.ids = h.ids[:0]
	h.keys = h.keys[:0]
	h.seqs = h.seqs[:0]
}

func (h *DenseHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.seqs[i], h.seqs[j] = h.seqs[j], h.seqs[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}

func (h *DenseHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *DenseHeap) down(i int) {
	n := len(h.ids)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

// LazyHeap is a binary min-heap without addressing, for incremental
// searches that touch few nodes of a large graph (graph.NNSearcher).
// It tracks no per-id position: DecreaseKey is Push, and a superseded
// entry surfaces later from PopMin at its stale key, which the caller
// skips through its own distance labels, as with BucketQueue. Len
// counts queued entries, superseded ones included.
//
// Entries pop in (key, push order). Every push takes the next value of
// the heap's own counter, so the live entry of an id carries the stamp
// of its latest key change, as DenseHeap's restamp does; that makes the
// filtered pop stream identical to DenseHeap's and BucketQueue's.
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

// DecreaseKey lowers id's key. The heap is lazy, so this is Push: the
// old entry surfaces later at its stale key and the caller skips it.
func (h *LazyHeap) DecreaseKey(id int32, key int64) { h.Push(id, key) }

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
