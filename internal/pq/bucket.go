package pq

// Monotone is the queue contract of Dijkstra-style searches: keys are
// pushed in arbitrary order but never below the key of the last PopMin
// (nonnegative edge weights guarantee this), and DecreaseKey only ever
// lowers keys. DenseHeap, LazyHeap, and BucketQueue all satisfy it.
//
// Equal-key pop order is pinned across every implementation (the
// package's determinism contract, DESIGN.md §11): among entries with
// equal keys, the one whose key was set earliest pops first — FIFO in
// key-update time. BucketQueue gets this for free from bucket FIFO; the
// heaps enforce it with a sequence stamp, which LazyHeap takes on every
// push and DenseHeap on every insert or key change. The pin is what
// lets the queue-selection heuristic swap implementations underneath a
// solver without changing its output bytes.
//
// Implementations differ in one observable: a lazy implementation
// (LazyHeap, BucketQueue) may return superseded entries from PopMin —
// an (id, key) whose key was later decreased pops again at the old
// key. Every search in this module already skips those via its
// distance labels (d > dist[v]); new callers must do the same.
type Monotone interface {
	Len() int
	Push(id int32, key int64)
	DecreaseKey(id int32, key int64)
	PopMin() (int32, int64)
	Reset()
}

var (
	_ Monotone = (*DenseHeap)(nil)
	_ Monotone = (*LazyHeap)(nil)
	_ Monotone = (*BucketQueue)(nil)
)

// bentry is one queued (id, key) pair of a BucketQueue's overflow list.
type bentry struct {
	id  int32
	key int64
}

// BucketQueue is a monotone Dial (bucket) priority queue for positive
// integer keys: a circular wheel of span+1 FIFO buckets indexed by
// key mod (span+1), plus an overflow list for keys beyond the current
// window. With span = the maximum edge weight of the graph being
// searched, every relaxed key lands in the wheel directly and PopMin is
// O(1) amortized — no log factor, no sift swaps — which is why the
// queue-selection heuristic (graph package) prefers it whenever the
// weight range is small enough to afford the wheel.
//
// Buckets are linked lists threaded through one shared entry arena
// (ids/keys/next), so pushes never allocate per bucket — creation cost
// is a handful of wheel-sized slices and stays cheap even for the
// short-lived queues behind per-customer NN searchers.
//
// The queue is lazy: it tracks no per-id position, so DecreaseKey simply
// enqueues another entry and the superseded one surfaces later from
// PopMin at its stale key. Callers skip those via their own distance
// labels, exactly as the graph searches already do for stale heap
// entries. Len counts queued entries, including superseded ones.
//
// Keys must respect the monotone contract: pushing a key below the last
// popped key panics (it would land behind the wheel cursor and pop out
// of order). Keys at or beyond base+span+1 go to the overflow list and
// are redistributed — preserving FIFO order — as the window reaches
// them.
type BucketQueue struct {
	head   []int32 // per-bucket first arena index, -1 when empty
	tail   []int32 // per-bucket last arena index (valid while head >= 0)
	marked []bool  // bucket touched since Reset (deduplicates dirty)
	dirty  []int32 // touched bucket indexes, for O(touched) Reset

	// Entry arena: consumed entries are abandoned in place and reclaimed
	// wholesale by Reset, keeping capacity.
	ids  []int32
	keys []int64
	next []int32

	overflow []bentry
	minOver  int64 // smallest overflow key; valid while overflow is non-empty
	cur      int64 // wheel index holding the current minimum candidates
	base     int64 // key floor: no live entry has a smaller key
	size     int

	overflows int64 // pushes that landed in overflow since Reset
}

// NewBucket returns a bucket queue whose wheel spans keys
// [floor, floor+span] at any moment; span must be at least the largest
// single key increase between a popped key and a pushed one (for
// Dijkstra: the maximum edge weight) to keep pushes out of overflow.
func NewBucket(span int64) *BucketQueue {
	if span < 0 {
		span = 0
	}
	nb := span + 1
	head := make([]int32, nb)
	for i := range head {
		head[i] = -1
	}
	return &BucketQueue{
		head:   head,
		tail:   make([]int32, nb),
		marked: make([]bool, nb),
	}
}

// Len reports the number of queued entries (superseded ones included).
func (q *BucketQueue) Len() int { return q.size }

// enqueue appends an entry to bucket b's FIFO list.
func (q *BucketQueue) enqueue(b int64, id int32, key int64) {
	idx := int32(len(q.ids))
	q.ids = append(q.ids, id)
	q.keys = append(q.keys, key)
	q.next = append(q.next, -1)
	if q.head[b] < 0 {
		q.head[b] = idx
		if !q.marked[b] {
			q.marked[b] = true
			q.dirty = append(q.dirty, int32(b))
		}
	} else {
		q.next[q.tail[b]] = idx
	}
	q.tail[b] = idx
}

// Push enqueues id at the given key. Pushing an id that is already
// queued leaves the earlier entry in place as a superseded duplicate.
func (q *BucketQueue) Push(id int32, key int64) {
	if key < q.base {
		panic("pq: BucketQueue key below the monotone floor")
	}
	nb := int64(len(q.head))
	if key-q.base >= nb {
		if len(q.overflow) == 0 || key < q.minOver {
			q.minOver = key
		}
		q.overflow = append(q.overflow, bentry{id, key})
		q.overflows++
		q.size++
		return
	}
	q.enqueue(key%nb, id, key)
	q.size++
}

// DecreaseKey lowers id's key. The queue is lazy, so this is Push: the
// old entry surfaces later at its stale key and the caller skips it.
func (q *BucketQueue) DecreaseKey(id int32, key int64) { q.Push(id, key) }

// PopMin removes and returns a minimum-key entry; among equal keys the
// earliest-pushed pops first. It must not be called on an empty queue.
func (q *BucketQueue) PopMin() (int32, int64) {
	if q.size == 0 {
		panic("pq: PopMin on empty BucketQueue")
	}
	nb := int64(len(q.head))
	for scanned := int64(0); scanned < nb; scanned++ {
		b := q.cur + scanned
		if b >= nb {
			b -= nb
		}
		e := q.head[b]
		if e < 0 {
			continue
		}
		q.head[b] = q.next[e]
		q.cur = b
		q.base = q.keys[e]
		// Advancing the floor may slide overflow keys into the window;
		// redistribute them NOW, before any same-key wheel pushes can land
		// ahead of them — that eager move is what preserves the FIFO pin
		// across the overflow boundary. (Overflow keys exceed every wheel
		// key, so the entry just popped is unaffected.)
		if len(q.overflow) > 0 && q.minOver-q.base < nb {
			q.redistribute()
		}
		q.size--
		return q.ids[e], q.keys[e]
	}
	// Wheel drained, all live entries in overflow: jump the floor to the
	// smallest overflow key and redistribute.
	q.base = q.minOver
	q.cur = q.base % nb
	q.redistribute()
	return q.PopMin()
}

// redistribute moves every overflow entry now inside the wheel window
// [base, base+nb) to its bucket, preserving FIFO order, and recomputes
// the overflow minimum. It must only run when the invariant "every live
// bucket key ≤ every overflow key" still holds — i.e. immediately after
// a base advance — so appended entries land behind nothing newer.
func (q *BucketQueue) redistribute() {
	nb := int64(len(q.head))
	kept := q.overflow[:0]
	newMin := int64(-1)
	for _, e := range q.overflow {
		if e.key-q.base >= nb {
			if newMin < 0 || e.key < newMin {
				newMin = e.key
			}
			kept = append(kept, e)
			continue
		}
		q.enqueue(e.key%nb, e.id, e.key)
	}
	q.overflow = kept
	if len(kept) > 0 {
		q.minOver = newMin
	}
}

// Reset empties the queue in O(buckets touched since the last Reset),
// retaining all capacity — the property the scratch-reuse idiom
// (graph.SearchScratch) depends on.
func (q *BucketQueue) Reset() {
	for _, b := range q.dirty {
		q.head[b] = -1
		q.marked[b] = false
	}
	q.dirty = q.dirty[:0]
	q.ids = q.ids[:0]
	q.keys = q.keys[:0]
	q.next = q.next[:0]
	q.overflow = q.overflow[:0]
	q.cur, q.base, q.size = 0, 0, 0
	q.overflows = 0
}

// Overflows reports how many pushes landed in the overflow list since
// the last Reset — the observability signal that the wheel span (the
// graph's max edge weight estimate) is undersized for the key range the
// search actually produced.
func (q *BucketQueue) Overflows() int64 { return q.overflows }

// Span returns the wheel span the queue was built with (bucket count
// minus one).
func (q *BucketQueue) Span() int64 { return int64(len(q.head)) - 1 }
