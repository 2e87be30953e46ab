package pq

import (
	"fmt"
	"math/rand"
	"testing"
)

// bentry is one (id, key) pair a workload pushes or a queue pops.
type bentry struct {
	id  int32
	key int64
}

// monotoneOp is one step of a scripted monotone workload: a push of
// (id, key), or a pop whose expected settle is (id, key).
type monotoneOp struct {
	pop bool
	id  int32
	key int64
}

// randomMonotoneOps generates a workload that respects the Monotone
// contract: keys pushed never drop below the key of the last pop, and
// ids are re-pushed only with strictly lower keys than their
// best-so-far (mirroring the d > dist[v] relax guard every search
// uses). Equal keys across different ids are generated deliberately
// often.
//
// The generator is also the queues' oracle. It simulates the settle
// order the package pins — minimum (key, update order) among the live
// ids — records each pop's expected (id, key) in the op, and returns
// the expected final drain of the ids still live after the last op.
func randomMonotoneOps(rng *rand.Rand, n int, idSpace int32, keySpread int64) (ops []monotoneOp, drain []bentry) {
	best := make(map[int32]int64)
	seq := make(map[int32]int64)
	settled := make(map[int32]bool)
	var tick int64
	settle := func() bentry {
		var minID int32
		minKey, minSeq := int64(-1), int64(-1)
		for id, k := range best {
			if minKey < 0 || k < minKey || (k == minKey && seq[id] < minSeq) {
				minID, minKey, minSeq = id, k, seq[id]
			}
		}
		delete(best, minID)
		delete(seq, minID)
		settled[minID] = true
		return bentry{minID, minKey}
	}
	floor := int64(0)
	for len(ops) < n && len(settled) < int(idSpace) {
		if len(best) > 0 && rng.Intn(3) == 0 {
			// Settle the entry the FIFO queues must pop next; its key
			// becomes the floor no later push may undercut.
			e := settle()
			floor = e.key
			ops = append(ops, monotoneOp{pop: true, id: e.id, key: e.key})
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
	for len(best) > 0 {
		drain = append(drain, settle())
	}
	return ops, drain
}

// applyOps replays a workload against a queue, returning the filtered
// pop stream (pops during the run plus a final drain). Every push op
// is valid by construction, so a key decrease is simply another Push.
func applyOps(q Monotone, ops []monotoneOp) []bentry {
	best := make(map[int32]int64)
	settled := make(map[int32]bool)
	var out []bentry
	popLive := func() {
		for q.Len() > 0 {
			id, key := q.PopMin()
			if settled[id] || key > best[id] {
				continue
			}
			settled[id] = true
			out = append(out, bentry{id, key})
			return
		}
	}
	for _, op := range ops {
		if op.pop {
			popLive()
			continue
		}
		best[op.id] = op.key
		q.Push(op.id, op.key)
	}
	for q.Len() > 0 {
		popLive()
	}
	return out
}

// pinnedOrderMismatch replays ops against LazyHeap and a BucketQueue of
// the given span, and describes the first difference between a queue's
// filtered pop stream and the settle order randomMonotoneOps simulated
// (the ops' expected pops, then drain) — ids included, not just keys —
// or returns nil: both queues pin the same FIFO equal-key tie-break.
func pinnedOrderMismatch(ops []monotoneOp, drain []bentry, span int64) error {
	var want []bentry
	for _, op := range ops {
		if op.pop {
			want = append(want, bentry{op.id, op.key})
		}
	}
	want = append(want, drain...)
	for _, q := range []struct {
		name string
		q    Monotone
	}{{"lazy", NewLazy()}, {"bucket", NewBucket(span)}} {
		got := applyOps(q.q, ops)
		if len(got) != len(want) {
			return fmt.Errorf("%s popped %d entries, want %d", q.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s pop %d = (%d,%d), want (%d,%d)",
					q.name, i, got[i].id, got[i].key, want[i].id, want[i].key)
			}
		}
	}
	return nil
}

// TestBucketMatchesHeapsPinnedOrder is the determinism property test:
// on random monotone workloads with frequent equal keys, the filtered
// pop streams of BucketQueue and LazyHeap must both match the settle
// order the workload generator simulates, exactly.
func TestBucketMatchesHeapsPinnedOrder(t *testing.T) {
	const idSpace = 64
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		spread := int64(1 + rng.Intn(8)) // tiny spread → many equal keys
		ops, drain := randomMonotoneOps(rng, 150, idSpace, spread)
		if err := pinnedOrderMismatch(ops, drain, spread); err != nil {
			t.Fatalf("trial %d (spread %d): %v", trial, spread, err)
		}
	}
}

// FuzzMonotoneQueues is the fuzzed form of the property test above:
// LazyHeap and BucketQueue must both produce the simulated settle order
// as their filtered pop stream on any monotone workload.
func FuzzMonotoneQueues(f *testing.F) {
	f.Add(int64(42), uint16(150), uint8(64), uint8(8))
	f.Add(int64(7), uint16(150), uint8(64), uint8(1))
	f.Add(int64(-3), uint16(600), uint8(5), uint8(40))
	f.Add(int64(11), uint16(2000), uint8(127), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, idRaw, spreadRaw uint8) {
		n := int(nRaw % 2048)
		idSpace := 1 + int32(idRaw%128)
		spread := 1 + int64(spreadRaw%64)
		ops, drain := randomMonotoneOps(rand.New(rand.NewSource(seed)), n, idSpace, spread)
		if err := pinnedOrderMismatch(ops, drain, spread); err != nil {
			t.Fatalf("%d ops, %d ids, spread %d: %v", len(ops), idSpace, spread, err)
		}
	})
}

// TestHeapEqualKeyFIFO checks the documented tie-break directly: equal
// keys pop in key-update order, and a key change re-stamps the entry.
func TestHeapEqualKeyFIFO(t *testing.T) {
	for name, mk := range map[string]func() Monotone{
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

// TestHeapDecreaseRestamps checks that a key decrease, a second Push,
// moves the entry to the back of its new equal-key class — matching
// the bucket queue's re-append semantics (the lazy heap's new entry
// takes a fresh stamp).
func TestHeapDecreaseRestamps(t *testing.T) {
	for name, mk := range map[string]func() Monotone{
		"lazy":   func() Monotone { return NewLazy() },
		"bucket": func() Monotone { return NewBucket(16) },
	} {
		q := mk()
		q.Push(7, 9)
		q.Push(4, 5)
		q.Push(7, 5) // re-stamped: now behind 4 in the key-5 class
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

// TestBucketSpanPanic checks that a push more than the span above the
// floor is caught loudly too, while one exactly span above it fits.
func TestBucketSpanPanic(t *testing.T) {
	q := NewBucket(8)
	q.Push(1, 5)
	q.PopMin() // base is now 5
	q.Push(2, 13)
	defer func() {
		if recover() == nil {
			t.Fatal("Push beyond the wheel span did not panic")
		}
	}()
	q.Push(3, 14)
}

// TestBucketResetReuse checks Reset restores a clean queue (floor back
// to zero) while reusing capacity.
func TestBucketResetReuse(t *testing.T) {
	q := NewBucket(4)
	for round := 0; round < 3; round++ {
		q.Push(1, 3)
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

// TestBucketLazyDuplicates checks the documented lazy semantics: a key
// decrease leaves the superseded entry observable at its stale key.
func TestBucketLazyDuplicates(t *testing.T) {
	q := NewBucket(10)
	q.Push(1, 8)
	q.Push(1, 2)
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
