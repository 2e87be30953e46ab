package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

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
	h.Push(9, 0)
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

func BenchmarkLazyHeapPushPop(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(3))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewLazy()
		for j := int32(0); j < n; j++ {
			h.Push(j, keys[j])
		}
		for h.Len() > 0 {
			h.PopMin()
		}
	}
}
