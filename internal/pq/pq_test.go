package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDenseHeapBasic(t *testing.T) {
	h := NewDense(10)
	if h.Len() != 0 {
		t.Fatalf("new heap not empty: %d", h.Len())
	}
	h.Push(3, 30)
	h.Push(1, 10)
	h.Push(7, 20)
	if id, key := h.PeekMin(); id != 1 || key != 10 {
		t.Fatalf("PeekMin = (%d,%d), want (1,10)", id, key)
	}
	if !h.Contains(7) || h.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if h.Key(7) != 20 {
		t.Fatalf("Key(7) = %d, want 20", h.Key(7))
	}
	id, key := h.PopMin()
	if id != 1 || key != 10 {
		t.Fatalf("PopMin = (%d,%d), want (1,10)", id, key)
	}
	if h.Contains(1) {
		t.Fatal("popped item still contained")
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
}

func TestDenseHeapDecreaseKey(t *testing.T) {
	h := NewDense(5)
	h.Push(0, 100)
	h.Push(1, 50)
	h.DecreaseKey(0, 10)
	if id, _ := h.PeekMin(); id != 0 {
		t.Fatalf("after decrease, min = %d, want 0", id)
	}
	h.DecreaseKey(0, 999) // no-op: not lower
	if h.Key(0) != 10 {
		t.Fatalf("DecreaseKey raised key to %d", h.Key(0))
	}
	h.DecreaseKey(4, 5) // insert-if-absent
	if id, key := h.PeekMin(); id != 4 || key != 5 {
		t.Fatalf("min = (%d,%d), want (4,5)", id, key)
	}
}

func TestDenseHeapPushUpdatesKey(t *testing.T) {
	h := NewDense(3)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(0, 30) // raise key of existing item
	if id, key := h.PeekMin(); id != 1 || key != 20 {
		t.Fatalf("min = (%d,%d), want (1,20)", id, key)
	}
}

func TestDenseHeapRemove(t *testing.T) {
	h := NewDense(6)
	for i := int32(0); i < 6; i++ {
		h.Push(i, int64(10-i))
	}
	h.Remove(5) // current min
	if id, _ := h.PeekMin(); id != 4 {
		t.Fatalf("after Remove(5), min = %d, want 4", id)
	}
	h.Remove(0) // max
	h.Remove(3)
	h.Remove(3) // double remove is a no-op
	var got []int32
	for h.Len() > 0 {
		id, _ := h.PopMin()
		got = append(got, id)
	}
	want := []int32{4, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("drain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain = %v, want %v", got, want)
		}
	}
}

func TestDenseHeapReset(t *testing.T) {
	h := NewDense(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Reset()
	if h.Len() != 0 || h.Contains(0) || h.Contains(1) {
		t.Fatal("Reset did not clear heap")
	}
	h.Push(1, 7)
	if id, key := h.PeekMin(); id != 1 || key != 7 {
		t.Fatal("heap unusable after Reset")
	}
}

// drainSorted checks that popping yields keys in nondecreasing order and
// returns the popped keys.
func drainDense(h *DenseHeap) []int64 {
	var keys []int64
	for h.Len() > 0 {
		_, k := h.PopMin()
		keys = append(keys, k)
	}
	return keys
}

func TestDenseHeapRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		h := NewDense(n)
		latest := make(map[int32]int64)
		for op := 0; op < 500; op++ {
			id := int32(rng.Intn(n))
			key := int64(rng.Intn(1000))
			h.Push(id, key)
			latest[id] = key
		}
		var want []int64
		for _, k := range latest {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := drainDense(h)
		if len(got) != len(want) {
			t.Fatalf("drained %d items, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: drain[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestLazyHeapLargeIDs(t *testing.T) {
	h := NewLazy()
	h.Push(1<<30, 5)
	h.Push(42, 3)
	if id, _ := h.PopMin(); id != 42 {
		t.Fatalf("min id = %d, want 42", id)
	}
	if id, _ := h.PopMin(); id != 1<<30 {
		t.Fatalf("second id = %d, want %d", id, 1<<30)
	}
}

// TestLazyHeapReset: Reset drops every entry, superseded ones included,
// and restarts the push stamps, so equal keys pushed afterwards pop in
// their new push order.
func TestLazyHeapReset(t *testing.T) {
	h := NewLazy()
	h.Push(9, 1)
	h.DecreaseKey(9, 0)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", h.Len())
	}
	h.Push(5, 4)
	h.Push(3, 4)
	for _, want := range []int32{5, 3} {
		if id, key := h.PopMin(); id != want || key != 4 {
			t.Fatalf("pop (%d,%d) after Reset, want (%d,4)", id, key, want)
		}
	}
}

// TestLazyHeapRandomAgainstSort: pushes in random key order drain in
// (key, push order), superseded entries included, as a stable sort of
// the pushes gives.
func TestLazyHeapRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		h := NewLazy()
		var want []bentry
		for op := 0; op < 1+rng.Intn(500); op++ {
			e := bentry{id: int32(rng.Intn(50)), key: int64(rng.Intn(40))}
			h.Push(e.id, e.key)
			want = append(want, e)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
		if h.Len() != len(want) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, h.Len(), len(want))
		}
		for i, w := range want {
			if id, key := h.PopMin(); id != w.id || key != w.key {
				t.Fatalf("trial %d: pop %d = (%d,%d), want (%d,%d)", trial, i, id, key, w.id, w.key)
			}
		}
	}
}

func TestGenericHeapOrdering(t *testing.T) {
	type item struct {
		gain int
		age  int
	}
	// Max-gain first, then lower age (an LRU-style composite key).
	h := NewHeap[item](func(a, b item) bool {
		if a.gain != b.gain {
			return a.gain > b.gain
		}
		return a.age < b.age
	})
	h.Push(item{3, 5})
	h.Push(item{7, 9})
	h.Push(item{7, 2})
	h.Push(item{1, 0})
	want := []item{{7, 2}, {7, 9}, {3, 5}, {1, 0}}
	for i, w := range want {
		got := h.Pop()
		if got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not drained")
	}
}

func TestGenericHeapQuickSortsInts(t *testing.T) {
	f := func(xs []int16) bool {
		h := NewHeap[int16](func(a, b int16) bool { return a < b })
		for _, x := range xs {
			h.Push(x)
		}
		sorted := append([]int16(nil), xs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, w := range sorted {
			if got := h.Pop(); got != w {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGenericHeapPeekAndReset(t *testing.T) {
	h := NewHeap[int](func(a, b int) bool { return a < b })
	h.Push(4)
	h.Push(2)
	if h.Peek() != 2 {
		t.Fatalf("Peek = %d, want 2", h.Peek())
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset failed")
	}
}

func BenchmarkDenseHeapPushPop(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(3))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewDense(n)
		for j := int32(0); j < n; j++ {
			h.Push(j, keys[j])
		}
		for h.Len() > 0 {
			h.PopMin()
		}
	}
}
