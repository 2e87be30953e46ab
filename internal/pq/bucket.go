package pq

// Monotone is the queue contract of Dijkstra-style searches: keys are
// pushed in arbitrary order but never below the key of the last PopMin
// (nonnegative edge weights guarantee this). LazyHeap and BucketQueue
// both satisfy it; BucketQueue also bounds how far above that key a
// push may go (its span).
//
// Both implementations are lazy: they track no per-id position, so a
// search lowers a queued id's key by pushing it again, and PopMin may
// return superseded entries — an (id, key) whose key was later lowered
// pops again at the old key. Every search in this module skips those
// via its distance labels (d > dist[v]); new callers must do the same.
//
// Equal-key pop order is pinned across both implementations (the
// package's determinism contract, DESIGN.md §11): among entries with
// equal keys, the one pushed earliest pops first — FIFO in key-update
// time, since a key update is a push. BucketQueue gets this for free
// from bucket FIFO; LazyHeap stamps every push with a sequence number.
// The pin is what lets the queue-selection heuristic swap
// implementations underneath a solver without changing its output
// bytes.
type Monotone interface {
	Len() int
	Push(id int32, key int64)
	PopMin() (int32, int64)
	Reset()
}

var (
	_ Monotone = (*LazyHeap)(nil)
	_ Monotone = (*BucketQueue)(nil)
)

// BucketQueue is a monotone Dial (bucket) priority queue for
// nonnegative integer keys: a circular wheel of span+1 FIFO buckets
// indexed by key mod (span+1). Every queued key lies in [floor,
// floor+span], where the floor is the key of the last PopMin (0 after
// Reset), so a bucket never holds two different keys and PopMin is O(1)
// amortized — no log factor, no sift swaps — which is why the
// queue-selection heuristic (graph package) prefers it whenever the
// weight range is small enough to afford the wheel. With span = the
// largest edge weight of the graph searched, a Dijkstra push (a popped
// key plus one edge weight) always fits.
//
// Buckets are linked lists threaded through one shared entry arena
// (ids/keys/next), so pushes never allocate per bucket — creation cost
// is a handful of wheel-sized slices.
//
// The queue is lazy: it tracks no per-id position, so a key decrease
// simply enqueues another entry and the superseded one surfaces later
// from PopMin at its stale key. Callers skip those via their own distance
// labels, exactly as the graph searches already do for stale heap
// entries. Len counts queued entries, including superseded ones.
//
// Pushing a key below the floor, or more than span above it, panics:
// it would pop out of order.
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

	cur  int64 // wheel index holding the current minimum candidates
	base int64 // key floor: no live entry has a smaller key
	size int
}

// NewBucket returns a bucket queue whose wheel spans keys
// [floor, floor+span]; span must be at least the largest single key
// increase between a popped key and a pushed one (for Dijkstra: the
// maximum edge weight).
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

// Push enqueues id at the given key, at the back of its bucket.
// Pushing an id that is already queued leaves the earlier entry in
// place as a superseded duplicate.
func (q *BucketQueue) Push(id int32, key int64) {
	if key < q.base {
		panic("pq: BucketQueue key below the monotone floor")
	}
	nb := int64(len(q.head))
	if key-q.base >= nb {
		panic("pq: BucketQueue key beyond the wheel span")
	}
	b := key % nb
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
	q.size++
}

// PopMin removes and returns a minimum-key entry; among equal keys the
// earliest-pushed pops first. It must not be called on an empty queue.
func (q *BucketQueue) PopMin() (int32, int64) {
	if q.size == 0 {
		panic("pq: PopMin on empty BucketQueue")
	}
	// Every queued key is within span of the floor, so the first
	// non-empty bucket from the cursor holds the minimum.
	nb := int64(len(q.head))
	b := q.cur
	for q.head[b] < 0 {
		if b++; b == nb {
			b = 0
		}
	}
	e := q.head[b]
	q.head[b] = q.next[e]
	q.cur = b
	q.base = q.keys[e]
	q.size--
	return q.ids[e], q.keys[e]
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
	q.cur, q.base, q.size = 0, 0, 0
}
