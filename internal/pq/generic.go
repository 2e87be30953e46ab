package pq

// Heap is a plain (non-addressable) binary min-heap ordered by a
// user-supplied less function. It backs the algorithm-specific queues
// that do not need decrease-key, such as the label heap of
// graph.MultiSourceTwoNearest.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len reports the number of items in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts an item.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// Peek returns the minimum item without removing it.
// It must not be called on an empty heap.
func (h *Heap[T]) Peek() T { return h.items[0] }

// Pop removes and returns the minimum item.
// It must not be called on an empty heap.
func (h *Heap[T]) Pop() T {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero
	h.items = h.items[:last]
	h.down(0)
	return top
}

// Reset empties the heap, retaining capacity.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(h.items[l], h.items[small]) {
			small = l
		}
		if r < n && h.less(h.items[r], h.items[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}
