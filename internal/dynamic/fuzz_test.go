package dynamic

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// fuzzInstance is the fixed instance every FuzzSnapshotRestore input is
// restored against: a 6-node path with facilities at 0/2/4 (capacity 2
// each), budget 2, and customers at 1 and 3. Its fingerprint is
// nodes=6, edges=5, facility_count=3, k=2 — the valid seeds in
// testdata/fuzz/FuzzSnapshotRestore are written against exactly these
// numbers.
func fuzzInstance() *data.Instance {
	b := graph.NewBuilder(6, false)
	for i := 0; i < 5; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return &data.Instance{
		G:         g,
		Customers: []int32{1, 3},
		Facilities: []data.Facility{
			{Node: 0, Capacity: 2},
			{Node: 2, Capacity: 2},
			{Node: 4, Capacity: 2},
		},
		K: 2,
	}
}

// FuzzSnapshotRestore pins two properties of the snapshot codec under
// arbitrary input. First, ReadSnapshot and Restore must reject garbage
// with an error — corrupt, truncated, or fingerprint-mismatched bytes
// must never panic (a crashed process restores whatever the disk holds,
// and mcfsd skips corrupt generations instead of dying on them).
// Second, anything ReadSnapshot accepts must round-trip byte-identically
// through Write → ReadSnapshot → Write, so a restored-then-resnapshotted
// state cannot drift through the codec itself. Third, a restored
// Reallocator's Snapshot and Publish carry exactly the input's handles
// and nodes. Fourth, it admits two arrivals at the next handles, or
// refuses one as infeasible, without panicking: restore refuses a
// next_id that would give a later arrival a negative or wrapped handle.
func FuzzSnapshotRestore(f *testing.F) {
	inst := fuzzInstance()

	// A genuine snapshot of a churned reallocator, captured at seed time.
	r, err := NewCtx(context.Background(), inst, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := r.AddCustomer(4); err != nil {
		f.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	var live bytes.Buffer
	if err := snap.Write(&live); err != nil {
		f.Fatal(err)
	}
	f.Add(live.Bytes())
	f.Add(live.Bytes()[:live.Len()/2])                                                                                                     // truncated mid-document
	f.Add([]byte(`{"version":1,"nodes":7,"edges":5,"facility_count":3,"k":2,"next_id":0,"selected":[],"handles":[],"customer_nodes":[]}`)) // fingerprint mismatch
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version":1,"handles":[0],"customer_nodes":[]}`))
	f.Add([]byte(`{"version":1,"nodes":6,"edges":5,"facility_count":3,"k":2,"next_id":-5,"selected":[],"handles":[],"customer_nodes":[]}`))                  // negative next_id
	f.Add([]byte(`{"version":1,"nodes":6,"edges":5,"facility_count":3,"k":2,"next_id":9223372036854775807,"selected":[],"handles":[],"customer_nodes":[]}`)) // next_id at math.MaxInt

	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := ReadSnapshot(bytes.NewReader(raw))
		if err != nil {
			return // rejected without panicking: the property we want
		}

		// Canonical round trip: write, re-read, re-write, compare bytes.
		var first bytes.Buffer
		if err := s.Write(&first); err != nil {
			t.Fatalf("write of accepted snapshot failed: %v", err)
		}
		s2, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written snapshot failed: %v", err)
		}
		var second bytes.Buffer
		if err := s2.Write(&second); err != nil {
			t.Fatalf("re-write of snapshot failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("snapshot round trip not byte-identical:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}

		// Restore must either succeed with a state that verifies, or
		// fail with an error — never panic, whatever the fields hold.
		restored, err := RestoreCtx(context.Background(), inst, s, Options{})
		if err != nil {
			return
		}
		if _, err := restored.Objective(); err != nil {
			t.Fatalf("restored reallocator cannot report objective: %v", err)
		}
		verify(t, restored)
		again, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		pub, err := restored.Publish()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again.Handles, s.Handles) || !slices.Equal(again.CustomerNodes, s.CustomerNodes) ||
			!slices.Equal(pub.Handles, s.Handles) || !slices.Equal(pub.Nodes, s.CustomerNodes) {
			t.Fatalf("restored handles %v at nodes %v (published %v at %v); input %v at %v",
				again.Handles, again.CustomerNodes, pub.Handles, pub.Nodes, s.Handles, s.CustomerNodes)
		}
		next := s.NextID
		for _, node := range []int32{0, 4} {
			h, err := restored.AddCustomer(node)
			if errors.Is(err, data.ErrInfeasible) {
				continue
			}
			if err != nil || h != next {
				t.Fatalf("arrival at node %d after restoring next_id %d: handle %d, error %v; want handle %d", node, s.NextID, h, err, next)
			}
			next++
			verify(t, restored)
		}
	})
}
