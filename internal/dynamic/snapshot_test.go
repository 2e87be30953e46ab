package dynamic

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// churnInstance is a 30-node line with facilities every other node and
// generous capacity slack, so churn (arrivals beyond the initial
// population) stays feasible.
func churnInstance(t *testing.T) *data.Instance {
	t.Helper()
	b := graph.NewBuilder(30, false)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 29; i++ {
		b.AddEdge(int32(i), int32(i+1), 1+rng.Int63n(9))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var facs []data.Facility
	for v := 0; v < 30; v += 2 {
		facs = append(facs, data.Facility{Node: int32(v), Capacity: 3})
	}
	return &data.Instance{
		G:          g,
		Customers:  []int32{1, 5, 9, 14, 22, 27},
		Facilities: facs,
		K:          6,
	}
}

func churnedReallocator(t *testing.T) (*data.Instance, *Reallocator) {
	t.Helper()
	inst := churnInstance(t)
	r, err := NewCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Churn so the snapshot captures non-trivial handle state.
	for i := 0; i < 4; i++ {
		if _, err := r.AddCustomer(inst.Customers[i%len(inst.Customers)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RemoveCustomer(1); err != nil {
		t.Fatal(err)
	}
	return inst, r
}

func TestSnapshotRoundTrip(t *testing.T) {
	inst, r := churnedReallocator(t)
	wantObj, err := r.Objective()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	restored, err := RestoreCtx(context.Background(), inst, read, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotObj, err := restored.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if gotObj != wantObj {
		t.Fatalf("restored objective %d != snapshotted %d", gotObj, wantObj)
	}
	if restored.BaseObjective() != r.BaseObjective() {
		t.Fatalf("restored base objective %d != %d", restored.BaseObjective(), r.BaseObjective())
	}
	if restored.Stats() != r.Stats() {
		t.Fatalf("restored stats %+v != %+v", restored.Stats(), r.Stats())
	}
	if restored.Customers() != r.Customers() {
		t.Fatalf("restored %d customers, want %d", restored.Customers(), r.Customers())
	}
	// Handle-level state survives: same assignment keys, and new handles
	// continue after the snapshotted ones rather than colliding.
	wantAsg, err := r.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	gotAsg, err := restored.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAsg) != len(wantAsg) {
		t.Fatalf("assignment sizes differ: %d vs %d", len(gotAsg), len(wantAsg))
	}
	for h := range wantAsg {
		if _, ok := gotAsg[h]; !ok {
			t.Fatalf("handle %d missing after restore", h)
		}
	}
	h, err := restored.AddCustomer(inst.Customers[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wantAsg[h]; ok {
		t.Fatalf("post-restore arrival reused live handle %d", h)
	}
	verify(t, restored)
}

func TestSnapshotFingerprintMismatch(t *testing.T) {
	inst, r := churnedReallocator(t)
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := &data.Instance{G: inst.G, Customers: inst.Customers, Facilities: inst.Facilities, K: inst.K + 1}
	if _, err := RestoreCtx(context.Background(), other, snap, Options{}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch accepted: %v", err)
	}
}

// TestSnapshotFingerprintMismatchMessage pins the itemized error shape:
// every disagreeing field is named with both the snapshot's value and
// the instance's, so the message diagnoses which half of the pairing is
// wrong rather than just declaring them different.
func TestSnapshotFingerprintMismatchMessage(t *testing.T) {
	inst, r := churnedReallocator(t)
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Nodes++
	snap.K += 3
	_, err = RestoreCtx(context.Background(), inst, snap, Options{})
	if err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
	want := fmt.Sprintf(
		"dynamic: snapshot fingerprint mismatch: nodes: snapshot %d vs instance %d; k: snapshot %d vs instance %d",
		snap.Nodes, inst.G.N(), snap.K, inst.K)
	if err.Error() != want {
		t.Fatalf("mismatch message:\n got %q\nwant %q", err, want)
	}
}

func TestSnapshotValidation(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := ReadSnapshot(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := ReadSnapshot(strings.NewReader(`{"version":1,"handles":[0],"customer_nodes":[]}`)); err == nil {
		t.Fatal("handle/node length mismatch accepted")
	}

	inst, r := churnedReallocator(t)
	for _, mutate := range []func(*Snapshot){
		func(s *Snapshot) { s.Handles[0] = s.NextID },      // handle beyond next_id
		func(s *Snapshot) { s.Handles[0] = s.Handles[1] },  // duplicate handle
		func(s *Snapshot) { s.CustomerNodes[0] = -1 },      // invalid node
		func(s *Snapshot) { s.Selected[0] = inst.L() },     // selection out of range
		func(s *Snapshot) { s.Selected = make([]int, 99) }, // selection over budget (dup zeros)
	} {
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		mutate(snap)
		if _, err := RestoreCtx(context.Background(), inst, snap, Options{}); err == nil {
			t.Fatal("corrupted snapshot accepted")
		}
	}
}

// TestSnapshotNextIDBound: restore refuses a next_id below 0 or past
// 2^53, naming the bound, since an arrival would then get a negative or
// wrapped handle (at math.MaxInt the second one does). At the bound
// itself, two arrivals get the next two handles.
func TestSnapshotNextIDBound(t *testing.T) {
	inst, r := churnedReallocator(t)
	for _, next := range []int{-5, 1<<53 + 1, math.MaxInt} {
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.NextID, snap.Handles, snap.CustomerNodes = next, nil, nil
		if _, err := RestoreCtx(context.Background(), inst, snap, Options{}); err == nil || !strings.Contains(err.Error(), "next_id") || !strings.Contains(err.Error(), "2^53") {
			t.Fatalf("restore with next_id %d: %v, want an error naming next_id and the bound 2^53", next, err)
		}
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.NextID = 1 << 53
	restored, err := RestoreCtx(context.Background(), inst, snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for want := 1 << 53; want < 1<<53+2; want++ {
		if h, err := restored.AddCustomer(inst.Customers[0]); err != nil || h != want {
			t.Fatalf("arrival after restoring next_id 2^53: handle %d, error %v; want handle %d", h, err, want)
		}
	}
	verify(t, restored)
}

func TestPublishImmutableView(t *testing.T) {
	inst, r := churnedReallocator(t)
	p, err := r.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if p.Customers() != r.Customers() {
		t.Fatalf("published %d customers, want %d", p.Customers(), r.Customers())
	}
	wantObj, err := r.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if p.Objective != wantObj {
		t.Fatalf("published objective %d != %d", p.Objective, wantObj)
	}
	asg, err := r.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	for h, want := range asg {
		node, fac, ok := p.Lookup(h)
		if !ok {
			t.Fatalf("handle %d missing from published view", h)
		}
		if fac != want {
			t.Fatalf("handle %d published facility %d, want %d", h, fac, want)
		}
		if node < 0 || int(node) >= inst.G.N() {
			t.Fatalf("handle %d published node %d out of range", h, node)
		}
	}
	if _, _, ok := p.Lookup(1 << 30); ok {
		t.Fatal("unknown handle resolved")
	}

	// The view must not alias mutable state: churn the reallocator and
	// check the published data is unchanged.
	before := append([]int(nil), p.Assignment...)
	if _, err := r.AddCustomer(inst.Customers[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if p.Assignment[i] != before[i] {
			t.Fatal("published view mutated by later operations")
		}
	}
}

func TestAdoptSelection(t *testing.T) {
	inst, r := churnedReallocator(t)
	// Adopt the current selection rotated through a fresh reallocator:
	// any feasible selection must be installable.
	sel := r.Selected()
	_, nodes := r.tab.population()
	adopted, err := AdoptCtx(context.Background(), r.instance(nodes), sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantObj, err := r.Objective()
	if err != nil {
		t.Fatal(err)
	}
	gotObj, err := adopted.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if gotObj != wantObj {
		t.Fatalf("adopted objective %d != %d", gotObj, wantObj)
	}
	if adopted.Stats().Adoptions != 1 {
		t.Fatalf("adoptions = %d, want 1", adopted.Stats().Adoptions)
	}
	verify(t, adopted)

	// Invalid selections are rejected and leave the previous state live.
	beforeSel := r.Selected()
	for _, bad := range [][]int{
		{-1},
		{inst.L()},
		{0, 0},
		make([]int, inst.K+1),
	} {
		if err := r.AdoptSelection(bad); err == nil {
			t.Fatalf("invalid selection %v accepted", bad)
		}
	}
	afterSel := r.Selected()
	if len(afterSel) != len(beforeSel) {
		t.Fatalf("selection changed by failed adoptions: %v -> %v", beforeSel, afterSel)
	}
	verify(t, r)

	// An infeasible selection (empty: nothing can serve the customers)
	// must surface ErrInfeasible and keep the old state.
	if err := r.AdoptSelection([]int{}); !errors.Is(err, data.ErrInfeasible) {
		t.Fatalf("empty selection: err = %v, want ErrInfeasible", err)
	}
	verify(t, r)
}

// TestSetContextHealsCancelledOp pins the contract the serving batch
// loop depends on: an arrival cancelled mid-stream leaves the state it
// found, so every read succeeds even under the cancelled context and
// shows that state, and after rebinding a live context the next arrival
// proceeds from it, with the handle the cancelled one did not use up.
func TestSetContextHealsCancelledOp(t *testing.T) {
	inst, r := churnedReallocator(t)
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	view, err := r.Publish()
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	r.SetContext(cancelled)
	if _, err := r.AddCustomer(inst.Customers[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("arrival under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if got, err := r.Objective(); err != nil || got != view.Objective {
		t.Fatalf("objective under cancelled ctx = %d, %v; want %d, nil", got, err, view.Objective)
	}
	assertUnchanged(t, r, snap, view)

	h, err := r.AddCustomer(inst.Customers[0])
	if err != nil {
		t.Fatalf("arrival after rebinding: %v", err)
	}
	if h != snap.NextID {
		t.Fatalf("arrival after rebinding got handle %d, want %d: the cancelled one used a handle up", h, snap.NextID)
	}
	verify(t, r)
}

// TestDepartureUnderCancelledContext pins that a departure has no
// failure mode: its repair never polls the context, so it is applied
// under a cancelled one and leaves an optimal, readable matching.
func TestDepartureUnderCancelledContext(t *testing.T) {
	_, r := churnedReallocator(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	r.SetContext(cancelled)
	before := r.Customers()
	if err := r.RemoveCustomer(0); err != nil {
		t.Fatalf("departure under cancelled ctx: %v", err)
	}
	if r.Customers() != before-1 {
		t.Fatalf("customers %d → %d after one departure", before, r.Customers())
	}
	if _, err := r.Publish(); err != nil {
		t.Fatalf("publish after the departure, still under the cancelled ctx: %v", err)
	}
	verify(t, r)
}
