package dynamic

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/graph"
	"mcfs/internal/obs"
	"mcfs/internal/testutil"
)

func lineInstance(t *testing.T) *data.Instance {
	t.Helper()
	b := graph.NewBuilder(10, false)
	for i := 0; i < 9; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var facs []data.Facility
	for v := 0; v < 10; v += 2 {
		facs = append(facs, data.Facility{Node: int32(v), Capacity: 2})
	}
	return &data.Instance{
		G:          g,
		Customers:  []int32{1, 7},
		Facilities: facs,
		K:          3,
	}
}

// verify checks the reallocator's current state against a from-scratch
// evaluation: structural validity and assignment optimality given the
// open selection.
func verify(t *testing.T, r *Reallocator) {
	t.Helper()
	inst, sol, err := r.Solution()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatalf("reallocator state invalid: %v", err)
	}
	// The incremental assignment must be optimal for the open selection.
	want, err := core.AssignToSelectionCtx(context.Background(), inst, sol.Selected)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != want.Objective {
		t.Fatalf("incremental objective %d != optimal %d for the open selection",
			sol.Objective, want.Objective)
	}
}

func TestReallocatorInitialMatchesSolve(t *testing.T) {
	inst := lineInstance(t)
	r, err := NewCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.SolveCtx(context.Background(), inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := r.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if obj != direct.Objective {
		t.Fatalf("initial objective %d != direct solve %d", obj, direct.Objective)
	}
	verify(t, r)
}

func TestReallocatorArrivalsIncremental(t *testing.T) {
	inst := lineInstance(t)
	r, err := NewCtx(context.Background(), inst, Options{DriftFactor: 100}) // keep selection fixed
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []int32{3, 5, 9} {
		if _, err := r.AddCustomer(node); err != nil {
			t.Fatal(err)
		}
		verify(t, r)
	}
	if r.Customers() != 5 {
		t.Fatalf("customers = %d, want 5", r.Customers())
	}
	st := r.Stats()
	if st.Arrivals != 3 {
		t.Fatalf("arrivals = %d", st.Arrivals)
	}
}

func TestReallocatorDepartures(t *testing.T) {
	inst := lineInstance(t)
	r, err := NewCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.AddCustomer(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveCustomer(h); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveCustomer(h); err == nil {
		t.Fatal("double removal accepted")
	}
	if err := r.RemoveCustomer(0); err != nil { // initial customer, handle 0
		t.Fatal(err)
	}
	verify(t, r)
	if r.Customers() != 1 {
		t.Fatalf("customers = %d, want 1", r.Customers())
	}
	if st := r.Stats(); st.Departures != 2 {
		t.Fatalf("departures = %d", st.Departures)
	}
}

func TestReallocatorSaturationTriggersReselect(t *testing.T) {
	// Selection capacity 2×3=6 with k=3; admit customers until the open
	// set saturates and a full re-solve must kick in, then until even the
	// catalogue is exhausted.
	inst := lineInstance(t)
	inst.K = 2 // open capacity 4
	// Drift re-solves disabled: only saturation can re-solve. That
	// re-solve is infeasible, and Stats.FullSolves counts only
	// successful ones, so the recorder's ReallocFullSolves, which counts
	// every attempt, is the witness.
	rec := obs.New()
	r, err := NewCtx(obs.WithRecorder(context.Background(), rec), inst, Options{DriftFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	attemptsBefore := rec.Counter(obs.ReallocFullSolves)
	admitted := 0
	var lastErr error
	for i := 0; i < 12; i++ {
		if _, err := r.AddCustomer(int32(i % 10)); err != nil {
			lastErr = err
			break
		}
		admitted++
		verify(t, r)
	}
	// Catalogue capacity is 10 with k=2 → max open capacity 4... after
	// re-selection k=2 picks the two cap-2 facilities: total 4 seats, 2
	// taken initially → at most 2 more than the initial 2 fit per open
	// set, but re-selection cannot exceed 4 seats total.
	if lastErr == nil {
		t.Fatalf("12 arrivals all admitted beyond capacity (admitted=%d)", admitted)
	}
	if !errors.Is(lastErr, data.ErrInfeasible) {
		t.Fatalf("saturation error = %v, want ErrInfeasible", lastErr)
	}
	if admitted != 2 {
		t.Fatalf("admitted %d, want 2 (4 seats, 2 initial customers)", admitted)
	}
	if got := rec.Counter(obs.ReallocFullSolves) - attemptsBefore; got != 1 {
		t.Fatalf("saturation triggered %d full re-solve attempts, want 1", got)
	}
}

func TestReallocatorDriftTriggersReselect(t *testing.T) {
	inst := lineInstance(t)
	r, err := NewCtx(context.Background(), inst, Options{DriftFactor: 1.01})
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats().FullSolves
	// Arrivals far from the initial selection inflate the objective.
	for _, node := range []int32{9, 9} {
		if _, err := r.AddCustomer(node); err != nil {
			t.Fatal(err)
		}
	}
	if r.Stats().FullSolves == before {
		t.Fatal("drift never triggered a re-selection")
	}
	verify(t, r)
}

// TestReallocatorDriftDisabled: with a negative DriftFactor the same
// arrivals that make TestReallocatorDriftTriggersReselect re-solve
// drift the objective past 1.01× its baseline without a re-solve.
func TestReallocatorDriftDisabled(t *testing.T) {
	inst := lineInstance(t)
	r, err := NewCtx(context.Background(), inst, Options{DriftFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats().FullSolves
	for _, node := range []int32{9, 9} {
		if _, err := r.AddCustomer(node); err != nil {
			t.Fatal(err)
		}
	}
	obj, err := r.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if base := r.BaseObjective(); float64(obj) <= 1.01*float64(base)+0.5 {
		t.Fatalf("objective %d did not drift past 1.01× its baseline %d; the test proves nothing", obj, base)
	}
	if got := r.Stats().FullSolves; got != before {
		t.Fatalf("full solves %d → %d with drift re-solves disabled", before, got)
	}
	verify(t, r)
}

// countdownCtx reports nil from Err for a fixed number of calls, then
// context.Canceled: a deterministic stand-in for a request deadline that
// fires at an arbitrary point inside an operation.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.Canceled
}

// TestAddCustomerErrorAdmitsNobody sweeps a cancellation over every
// context poll of an arrival. Wherever AddCustomer fails, it leaves the
// state it found: the snapshot, Stats and NextID included, equals the
// one taken before the call, and the published view keeps its
// objective, selection and handles. Both reads succeed under the
// still-cancelled context, since nothing is left to rebuild, and a live
// context then verifies the state. The drift input fails in the
// newcomer's search and inside the re-solve its arrival triggers. The
// infeasible input saturates the open selection, and its re-solve fails
// at every poll count: cancelled, or refused once the countdown
// outlasts it.
func TestAddCustomerErrorAdmitsNobody(t *testing.T) {
	for _, tc := range []struct {
		name   string
		k      int
		drift  float64
		before []int32 // arrivals admitted before the swept one
		node   int32
		final  error // the swept arrival's error once the countdown outlasts it
		// cancelInResolve requires some poll index to cancel the arrival
		// inside its re-solve.
		cancelInResolve bool
	}{
		{name: "drift", k: 3, drift: 1.01, node: 9, cancelInResolve: true},
		{name: "infeasible", k: 2, drift: -1, before: []int32{0, 1}, node: 2, final: data.ErrInfeasible},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := lineInstance(t)
			inst.K = tc.k
			inResolve := 0
			for polls := 0; ; polls++ {
				if polls > 100000 {
					t.Fatal("arrival still cancelled after 100000 polls")
				}
				r, err := NewCtx(context.Background(), inst, Options{DriftFactor: tc.drift})
				if err != nil {
					t.Fatal(err)
				}
				for _, node := range tc.before {
					if _, err := r.AddCustomer(node); err != nil {
						t.Fatal(err)
					}
				}
				snap, err := r.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				view, err := r.Publish()
				if err != nil {
					t.Fatal(err)
				}
				rec := obs.New()
				r.SetContext(obs.WithRecorder(&countdownCtx{Context: context.Background(), remaining: polls}, rec))
				h, err := r.AddCustomer(tc.node)
				cancelled := errors.Is(err, context.Canceled)
				resolved := rec.Counter(obs.ReallocFullSolves) > 0
				switch {
				case cancelled && resolved:
					inResolve++
				case !cancelled && !errors.Is(err, tc.final):
					t.Fatalf("polls %d: err = %v, want context.Canceled or %v", polls, err, tc.final)
				case !cancelled && !resolved:
					t.Fatal("the arrival never re-solved; the sweep proves nothing")
				}
				if err != nil {
					if h != 0 {
						t.Fatalf("polls %d: failed arrival returned handle %d, want 0", polls, h)
					}
					assertUnchanged(t, r, snap, view)
				}
				if !cancelled {
					break
				}
			}
			if tc.cancelInResolve && inResolve == 0 {
				t.Fatal("no poll index cancelled the arrival inside its re-solve")
			}
		})
	}
}

// assertUnchanged checks, under whatever context r holds, that both
// reads succeed and match the snapshot and view taken before a failed
// operation, then verifies the state under a live context.
func assertUnchanged(t *testing.T, r *Reallocator, snap *Snapshot, view *Published) {
	t.Helper()
	got, err := r.Snapshot()
	if err != nil {
		t.Fatalf("snapshot after the failed operation: %v", err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("failed operation changed the snapshot:\n got %+v\nwant %+v", got, snap)
	}
	pub, err := r.Publish()
	if err != nil {
		t.Fatalf("publish after the failed operation: %v", err)
	}
	if pub.Objective != view.Objective || !slices.Equal(pub.Selected, view.Selected) || !slices.Equal(pub.Handles, view.Handles) {
		t.Fatalf("failed operation changed the view: objective %d, selected %v, handles %v; want %d, %v, %v",
			pub.Objective, pub.Selected, pub.Handles, view.Objective, view.Selected, view.Handles)
	}
	r.SetContext(context.Background())
	verify(t, r)
}

// TestReallocatorRejectsDriftFactorAtMostOne: a factor in (0, 1] would
// run a full solve on almost every arrival, so every constructor
// rejects it, as it does NaN.
func TestReallocatorRejectsDriftFactorAtMostOne(t *testing.T) {
	inst := lineInstance(t)
	ctx := context.Background()
	r, err := NewCtx(ctx, inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0.5, 1, math.NaN()} {
		if _, err := NewCtx(ctx, inst, Options{DriftFactor: f}); err == nil || !strings.Contains(err.Error(), "must exceed 1") {
			t.Errorf("NewCtx with DriftFactor %v: err = %v, want the drift-factor contract", f, err)
		}
		if _, err := AdoptCtx(ctx, inst, r.Selected(), Options{DriftFactor: f}); err == nil {
			t.Errorf("AdoptCtx accepted DriftFactor %v", f)
		}
		if _, err := RestoreCtx(ctx, inst, snap, Options{DriftFactor: f}); err == nil {
			t.Errorf("RestoreCtx accepted DriftFactor %v", f)
		}
	}
}

// TestReallocatorRandomChurn interleaves random arrivals and departures
// and verifies the state against AssignToSelection after every step,
// and every view of the population against the test's own handle→node
// model. Capacities of one or two make departures leave full
// facilities, and the test requires that some departure's repair
// cancelled a cycle, so the in-place repair, not only the free-slot
// shortcut, is checked. It freezes a view after every step, refused
// arrivals included, and keeps them all: once a trial ends, each view
// flattened must still equal the flat Publish taken at its step, and its
// Snapshot the Snapshot taken at its step, so no later write reached a
// frozen page, selection or counter. The steps hand out handles past the
// first 64, so the churn crosses pages and empties some.
func TestReallocatorRandomChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cycles, pages, adoptions := 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		inst := testutil.RandomInstance(rng, testutil.Params{
			MinNodes: 20, MaxNodes: 60,
			MaxCustomers: 6, MaxFacilities: 8,
			MaxCapacity: 2, MaxWeight: 20,
		})
		// Ample budget so churn stays feasible.
		inst.K = inst.L()
		rec := obs.New()
		r, err := NewCtx(obs.WithRecorder(context.Background(), rec), inst, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var handles, departed []int
		model := make(map[int]int32) // live handle → node
		for h, node := range inst.Customers {
			handles = append(handles, h)
			model[h] = node
		}
		var views []*View
		var flats []*Published
		var snaps []*Snapshot
		for step := 0; step < 200; step++ {
			if sel := r.Selected(); len(sel) > 1 && rng.Intn(25) == 0 {
				// Adopt the selection with one open facility swapped for a
				// closed one, or dropped: a rebuild, which must replace the
				// selection the views share, not write into it.
				var closed []int
				for j := range inst.L() {
					if !slices.Contains(sel, j) {
						closed = append(closed, j)
					}
				}
				if i := rng.Intn(len(sel)); len(closed) > 0 && rng.Intn(2) == 0 {
					sel[i] = closed[rng.Intn(len(closed))]
				} else {
					sel = slices.Delete(sel, i, i+1)
				}
				switch err := r.AdoptSelection(sel); {
				case err == nil:
					adoptions++
				case !errors.Is(err, data.ErrInfeasible):
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			} else if len(handles) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(handles))
				before := rec.Counter(obs.ReallocReroutedCustomers)
				if err := r.RemoveCustomer(handles[i]); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				if rec.Counter(obs.ReallocReroutedCustomers) > before {
					cycles++
				}
				delete(model, handles[i])
				departed = append(departed, handles[i])
				handles = append(handles[:i], handles[i+1:]...)
			} else {
				node := int32(rng.Intn(inst.G.N()))
				h, err := r.AddCustomer(node)
				switch {
				case err == nil:
					handles = append(handles, h)
					model[h] = node
				case !errors.Is(err, data.ErrInfeasible):
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				} // ErrInfeasible: catalogue saturated or unreachable node, acceptable
			}
			verify(t, r)
			view := r.Freeze()
			flat, snap := checkModel(t, r, model, view, departed)
			views, flats, snaps = append(views, view), append(flats, flat), append(snaps, snap)
			pages = max(pages, len(r.tab.pages))
		}
		for step, v := range views {
			if got := v.Flatten(); !reflect.DeepEqual(got, flats[step]) {
				t.Fatalf("trial %d: the view frozen at step %d changed:\n got %+v\nwant %+v", trial, step, got, flats[step])
			}
			if got := v.Snapshot(); !reflect.DeepEqual(got, snaps[step]) {
				t.Fatalf("trial %d: the snapshot of the view frozen at step %d changed:\n got %+v\nwant %+v", trial, step, got, snaps[step])
			}
		}
	}
	if cycles == 0 {
		t.Fatal("no departure cancelled a cycle; the churn never reached the repair")
	}
	if pages < 2 {
		t.Fatal("the live table never held two pages; the churn never crossed a page")
	}
	if adoptions == 0 {
		t.Fatal("no adoption succeeded; the churn never replaced a shared selection")
	}
	t.Logf("%d departures cancelled a cycle; at most %d pages; %d adoptions", cycles, pages, adoptions)
}

// checkModel checks every view of the live population against model, a
// record of the live handles and their nodes kept outside the
// Reallocator: Publish, the frozen view and Snapshot list exactly the
// model's handles in ascending order, each at its own node; the frozen
// view's Snapshot equals the Reallocator's; every live handle's Lookup
// in both views gives the facility the matcher-derived Assignment holds,
// and no departed handle resolves; Solution, Objective and Customers
// agree with the published view. It returns the flat Publish and the
// Snapshot.
func checkModel(t *testing.T, r *Reallocator, model map[int]int32, view *View, departed []int) (*Published, *Snapshot) {
	t.Helper()
	handles := make([]int, 0, len(model))
	for h := range model {
		handles = append(handles, h)
	}
	slices.Sort(handles)
	nodes := make([]int32, len(handles))
	for i, h := range handles {
		nodes[i] = model[h]
	}
	pub, err := r.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pub.Handles, handles) || !slices.Equal(pub.Nodes, nodes) {
		t.Fatalf("published handles %v at nodes %v; model %v at %v", pub.Handles, pub.Nodes, handles, nodes)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(snap.Handles, handles) || !slices.Equal(snap.CustomerNodes, nodes) {
		t.Fatalf("snapshot handles %v at nodes %v; model %v at %v", snap.Handles, snap.CustomerNodes, handles, nodes)
	}
	if got := view.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Fatalf("frozen view's snapshot %+v, Snapshot %+v", got, snap)
	}
	asg, err := r.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	if len(asg) != len(handles) || r.Customers() != len(handles) {
		t.Fatalf("Assignment has %d customers, Customers() %d; model %d", len(asg), r.Customers(), len(handles))
	}
	if got := view.Flatten(); !reflect.DeepEqual(got, pub) {
		t.Fatalf("frozen view %+v, flat Publish %+v", got, pub)
	}
	if view.Customers() != len(handles) || view.Objective() != pub.Objective {
		t.Fatalf("frozen view holds %d customers at objective %d; model %d, Publish %d",
			view.Customers(), view.Objective(), len(handles), pub.Objective)
	}
	for i, h := range handles {
		node, fac, ok := pub.Lookup(h)
		vnode, vfac, vok := view.Lookup(h)
		if !ok || !vok || node != nodes[i] || vnode != nodes[i] || fac != asg[h] || vfac != asg[h] || fac != pub.Assignment[i] {
			t.Fatalf("customer %d: Lookup (%d, %d, %v), view Lookup (%d, %d, %v), published facility %d, Assignment %d; model node %d",
				h, node, fac, ok, vnode, vfac, vok, pub.Assignment[i], asg[h], nodes[i])
		}
	}
	for _, h := range append(departed[max(0, len(departed)-8):], -1, r.nextID, r.nextID+pageSize) {
		if _, _, ok := view.Lookup(h); ok {
			t.Fatalf("handle %d resolves in the frozen view but is not live", h)
		}
	}
	inst, sol, err := r.Solution()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := r.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(inst.Customers, nodes) || !slices.Equal(sol.Assignment, pub.Assignment) ||
		!slices.Equal(sol.Selected, pub.Selected) || sol.Objective != pub.Objective || obj != pub.Objective {
		t.Fatalf("Solution (nodes %v, assignment %v, selected %v, objective %d) and Objective %d disagree with the published view (%v, %v, %v, %d)",
			inst.Customers, sol.Assignment, sol.Selected, sol.Objective, obj, pub.Nodes, pub.Assignment, pub.Selected, pub.Objective)
	}
	return pub, snap
}

func TestReallocatorRefresh(t *testing.T) {
	inst := lineInstance(t)
	r, err := NewCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats().FullSolves
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if r.Stats().FullSolves != before+1 {
		t.Fatal("Refresh did not run a full solve")
	}
	verify(t, r)
}

func TestReallocatorInvalidInputs(t *testing.T) {
	inst := lineInstance(t)
	r, err := NewCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddCustomer(-1); err == nil {
		t.Fatal("negative node accepted")
	}
	if _, err := r.AddCustomer(int32(inst.G.N())); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	bad := &data.Instance{G: inst.G, Customers: []int32{99}, K: 1}
	if _, err := NewCtx(context.Background(), bad, Options{}); err == nil {
		t.Fatal("invalid instance accepted")
	}
	infeasible := &data.Instance{G: inst.G, Customers: []int32{0}, K: 0}
	if _, err := NewCtx(context.Background(), infeasible, Options{}); !errors.Is(err, data.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}
