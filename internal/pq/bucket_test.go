package pq

import (
	"fmt"
	"math/rand"
	"testing"
)

// monotoneOp is one step of a scripted monotone workload.
type monotoneOp struct {
	pop bool
	id  int32
	key int64
}

// randomMonotoneOps generates a workload that respects the Monotone
// contract: keys pushed never drop below the key of the last pop, and
// ids are re-pushed only with strictly lower keys than their
// best-so-far (mirroring the d > dist[v] relax guard every search
// uses). The generator simulates the settle order — min (key, update
// seq) — to keep the floor exact. Equal keys across different ids are
// generated deliberately often.
func randomMonotoneOps(rng *rand.Rand, n int, idSpace int32, keySpread int64) []monotoneOp {
	var ops []monotoneOp
	best := make(map[int32]int64)
	seq := make(map[int32]int64)
	settled := make(map[int32]bool)
	var tick int64
	floor := int64(0)
	for len(ops) < n && len(settled) < int(idSpace) {
		if len(best) > 0 && rng.Intn(3) == 0 {
			// Settle the entry the FIFO queues would pop next; its key
			// becomes the floor no later push may undercut.
			var minID int32
			minKey, minSeq := int64(-1), int64(-1)
			for id, k := range best {
				if minKey < 0 || k < minKey || (k == minKey && seq[id] < minSeq) {
					minID, minKey, minSeq = id, k, seq[id]
				}
			}
			floor = minKey
			delete(best, minID)
			delete(seq, minID)
			settled[minID] = true
			ops = append(ops, monotoneOp{pop: true})
			continue
		}
		id := rng.Int31n(idSpace)
		if settled[id] {
			continue // settled ids never re-enter, like dist finalization
		}
		// Small spread so equal keys collide frequently.
		key := floor + rng.Int63n(keySpread)
		if b, ok := best[id]; ok && key >= b {
			continue // only strict decreases, like the relax guard
		}
		best[id] = key
		seq[id] = tick
		tick++
		ops = append(ops, monotoneOp{id: id, key: key})
	}
	return ops
}

// applyOps replays a workload against a queue, returning the filtered
// pop stream (pops during the run plus a final drain).
func applyOps(q Monotone, ops []monotoneOp) []bentry {
	best := make(map[int32]int64)
	settled := make(map[int32]bool)
	var out []bentry
	for _, op := range ops {
		if op.pop {
			for q.Len() > 0 {
				id, key := q.PopMin()
				if settled[id] || key > best[id] {
					continue
				}
				settled[id] = true
				out = append(out, bentry{id, key})
				break
			}
			continue
		}
		if settled[op.id] {
			continue
		}
		if b, ok := best[op.id]; ok {
			if op.key >= b {
				continue
			}
			best[op.id] = op.key
			q.DecreaseKey(op.id, op.key)
		} else {
			best[op.id] = op.key
			q.Push(op.id, op.key)
		}
	}
	for q.Len() > 0 {
		id, key := q.PopMin()
		if settled[id] || key > best[id] {
			continue
		}
		settled[id] = true
		out = append(out, bentry{id, key})
	}
	return out
}

// pinnedOrderMismatch replays ops against DenseHeap, LazyHeap and a
// BucketQueue of the given span, and describes the first difference
// between their filtered pop streams — ids included, not just keys —
// or returns nil: all three pin the same FIFO equal-key tie-break.
func pinnedOrderMismatch(ops []monotoneOp, idSpace int32, span int64) error {
	dense := applyOps(NewDense(int(idSpace)), ops)
	for name, got := range map[string][]bentry{
		"lazy":   applyOps(NewLazy(), ops),
		"bucket": applyOps(NewBucket(span), ops),
	} {
		if len(got) != len(dense) {
			return fmt.Errorf("%s popped %d entries, dense %d", name, len(got), len(dense))
		}
		for i := range dense {
			if got[i] != dense[i] {
				return fmt.Errorf("%s pop %d = (%d,%d), dense (%d,%d)",
					name, i, got[i].id, got[i].key, dense[i].id, dense[i].key)
			}
		}
	}
	return nil
}

// TestBucketMatchesHeapsPinnedOrder is the determinism property test:
// on random monotone workloads with frequent equal keys, the filtered
// pop stream of BucketQueue and LazyHeap must match DenseHeap exactly.
func TestBucketMatchesHeapsPinnedOrder(t *testing.T) {
	const idSpace = 64
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		spread := int64(1 + rng.Intn(8)) // tiny spread → many equal keys
		ops := randomMonotoneOps(rng, 150, idSpace, spread)
		// Span deliberately smaller than the key range on some trials so
		// the overflow/rebase path is exercised too.
		span := spread
		if trial%3 == 0 {
			span = 1
		}
		if err := pinnedOrderMismatch(ops, idSpace, span); err != nil {
			t.Fatalf("trial %d (spread %d, span %d): %v", trial, spread, span, err)
		}
	}
}

// FuzzMonotoneQueues is the fuzzed form of the property test above:
// DenseHeap, LazyHeap and BucketQueue must produce the same filtered
// pop stream on any monotone workload. The span is clamped to [0,
// spread]; a span below spread-1 puts keys past the wheel window, so
// those inputs run the overflow path.
func FuzzMonotoneQueues(f *testing.F) {
	f.Add(int64(42), uint16(150), uint8(64), uint8(8), uint8(8))
	f.Add(int64(42), uint16(150), uint8(64), uint8(8), uint8(1))
	f.Add(int64(7), uint16(150), uint8(64), uint8(1), uint8(1))
	f.Add(int64(-3), uint16(600), uint8(5), uint8(40), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, idRaw, spreadRaw, spanRaw uint8) {
		n := int(nRaw % 2048)
		idSpace := 1 + int32(idRaw%128)
		spread := 1 + int64(spreadRaw%64)
		span := min(int64(spanRaw), spread)
		ops := randomMonotoneOps(rand.New(rand.NewSource(seed)), n, idSpace, spread)
		if err := pinnedOrderMismatch(ops, idSpace, span); err != nil {
			t.Fatalf("%d ops, %d ids, spread %d, span %d: %v", len(ops), idSpace, spread, span, err)
		}
	})
}

// TestHeapEqualKeyFIFO checks the documented tie-break directly: equal
// keys pop in key-update order, and a key change re-stamps the entry.
func TestHeapEqualKeyFIFO(t *testing.T) {
	for name, mk := range map[string]func() Monotone{
		"dense":  func() Monotone { return NewDense(16) },
		"lazy":   func() Monotone { return NewLazy() },
		"bucket": func() Monotone { return NewBucket(16) },
	} {
		q := mk()
		q.Push(3, 5)
		q.Push(1, 5)
		q.Push(2, 5)
		var order []int32
		for q.Len() > 0 {
			id, key := q.PopMin()
			if key != 5 {
				t.Fatalf("%s: key %d, want 5", name, key)
			}
			order = append(order, id)
		}
		if order[0] != 3 || order[1] != 1 || order[2] != 2 {
			t.Fatalf("%s: equal-key pop order %v, want [3 1 2] (insertion FIFO)", name, order)
		}
	}
}

// TestHeapDecreaseRestamps checks that a key decrease moves the entry to
// the back of its new equal-key class — matching the bucket queue's
// re-append semantics (the lazy heap's new entry takes a fresh stamp).
func TestHeapDecreaseRestamps(t *testing.T) {
	for name, mk := range map[string]func() Monotone{
		"dense": func() Monotone { return NewDense(16) },
		"lazy":  func() Monotone { return NewLazy() },
	} {
		q := mk()
		q.Push(7, 9)
		q.Push(4, 5)
		q.DecreaseKey(7, 5) // re-stamped: now behind 4 in the key-5 class
		id, _ := q.PopMin()
		if id != 4 {
			t.Fatalf("%s: first pop %d, want 4 (decrease must re-stamp)", name, id)
		}
		id, _ = q.PopMin()
		if id != 7 {
			t.Fatalf("%s: second pop %d, want 7", name, id)
		}
	}
}

// TestBucketOverflowRebase drives keys past the wheel window and checks
// the redistribute path preserves order and FIFO.
func TestBucketOverflowRebase(t *testing.T) {
	q := NewBucket(3) // wheel covers [base, base+3]
	q.Push(1, 0)
	q.Push(2, 100) // overflow
	q.Push(3, 100) // overflow, behind 2
	q.Push(4, 102) // overflow
	q.Push(5, 2)

	want := []bentry{{1, 0}, {5, 2}, {2, 100}, {3, 100}, {4, 102}}
	for i, w := range want {
		id, key := q.PopMin()
		if id != w.id || key != w.key {
			t.Fatalf("pop %d = (%d,%d), want (%d,%d)", i, id, key, w.id, w.key)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// TestBucketDeepOverflow forces multiple rebase rounds (keys spanning
// several windows) including entries that stay in overflow across a
// rebase.
func TestBucketDeepOverflow(t *testing.T) {
	q := NewBucket(2)
	keys := []int64{0, 7, 15, 4, 30, 8}
	for i, k := range keys {
		q.Push(int32(i), k)
	}
	var got []int64
	for q.Len() > 0 {
		_, k := q.PopMin()
		got = append(got, k)
	}
	want := []int64{0, 4, 7, 8, 15, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop keys %v, want %v", got, want)
		}
	}
}

// TestBucketMonotonePanic checks that breaking the monotone floor is
// caught loudly rather than popping out of order.
func TestBucketMonotonePanic(t *testing.T) {
	q := NewBucket(8)
	q.Push(1, 5)
	q.PopMin() // base is now 5
	defer func() {
		if recover() == nil {
			t.Fatal("Push below the monotone floor did not panic")
		}
	}()
	q.Push(2, 3)
}

// TestBucketResetReuse checks Reset restores a clean queue (floor back
// to zero) while reusing capacity, across overflow state too.
func TestBucketResetReuse(t *testing.T) {
	q := NewBucket(4)
	for round := 0; round < 3; round++ {
		q.Push(1, 3)
		q.Push(2, 50) // overflow
		q.Push(3, 3)
		if _, k := q.PopMin(); k != 3 {
			t.Fatalf("round %d: first key %d, want 3", round, k)
		}
		q.Reset()
		if q.Len() != 0 {
			t.Fatalf("round %d: Len %d after Reset", round, q.Len())
		}
		// Keys below the pre-Reset floor must be accepted again.
		q.Push(4, 0)
		id, k := q.PopMin()
		if id != 4 || k != 0 {
			t.Fatalf("round %d: post-Reset pop (%d,%d), want (4,0)", round, id, k)
		}
		q.Reset()
	}
}

// TestBucketLazyDuplicates checks the documented lazy semantics: a
// DecreaseKey leaves the superseded entry observable at its stale key.
func TestBucketLazyDuplicates(t *testing.T) {
	q := NewBucket(10)
	q.Push(1, 8)
	q.DecreaseKey(1, 2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (lazy duplicate retained)", q.Len())
	}
	id, k := q.PopMin()
	if id != 1 || k != 2 {
		t.Fatalf("first pop (%d,%d), want (1,2)", id, k)
	}
	id, k = q.PopMin()
	if id != 1 || k != 8 {
		t.Fatalf("stale pop (%d,%d), want (1,8)", id, k)
	}
}

func BenchmarkBucketPushPop(b *testing.B) {
	const n = 1024
	q := NewBucket(64)
	rng := rand.New(rand.NewSource(7))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			q.Push(int32(j), keys[j])
		}
		for q.Len() > 0 {
			q.PopMin()
		}
		q.Reset()
	}
}
