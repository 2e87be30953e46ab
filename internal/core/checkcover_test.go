package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"mcfs/internal/core"
	"mcfs/internal/pq"
)

// fakeCoverage is a hand-built assignment view. Like the matcher, it
// appends a facility to its touched list the first time the facility
// holds a customer and never removes it, even once its load drops to
// zero.
type fakeCoverage struct {
	m       int
	assign  [][]int // per facility: assigned customers
	touched []int32
	seen    []bool
}

func newFakeCoverage(m, l int) *fakeCoverage {
	return &fakeCoverage{m: m, assign: make([][]int, l), seen: make([]bool, l)}
}

// fakeView builds a view with assign[j] assigned to facility j, touched
// in index order.
func fakeView(m int, assign [][]int) *fakeCoverage {
	f := newFakeCoverage(m, len(assign))
	for j, custs := range assign {
		f.set(j, custs...)
	}
	return f
}

// set replaces facility j's assigned customers.
func (f *fakeCoverage) set(j int, custs ...int) {
	f.assign[j] = custs
	if len(custs) > 0 && !f.seen[j] {
		f.seen[j] = true
		f.touched = append(f.touched, int32(j))
	}
}

func (f *fakeCoverage) M() int                  { return f.m }
func (f *fakeCoverage) L() int                  { return len(f.assign) }
func (f *fakeCoverage) AssignedCount(j int) int { return len(f.assign[j]) }
func (f *fakeCoverage) Touched() []int32        { return f.touched }

func (f *fakeCoverage) CountUncovered(j int, covered []bool) int {
	n := 0
	for _, c := range f.assign[j] {
		if !covered[c] {
			n++
		}
	}
	return n
}

func (f *fakeCoverage) MarkCovered(j int, covered []bool) int {
	n := 0
	for _, c := range f.assign[j] {
		if !covered[c] {
			covered[c] = true
			n++
		}
	}
	return n
}

// legacyCoverage is the callback-style view the reference pass reads.
type legacyCoverage interface {
	M() int
	L() int
	AssignedCount(j int) int
	Assigned(j int, fn func(cust int))
	Touched(fn func(j int))
}

// legacyView adapts a fakeCoverage to legacyCoverage.
type legacyView struct{ *fakeCoverage }

func (v legacyView) Assigned(j int, fn func(int)) {
	for _, c := range v.assign[j] {
		fn(c)
	}
}

func (v legacyView) Touched(fn func(int)) {
	for _, j := range v.touched {
		fn(int(j))
	}
}

// checkCoverRef is the reference for core.Coverer: a lazy-greedy pass
// over a comparator heap rebuilt on every call, with the tie-break state
// held by the caller as lastUsed (the last pass that selected each
// facility, -1 for never).
func checkCoverRef(view legacyCoverage, k int, lastUsed []int, tie core.TieBreak) (selection []int, deltaD []bool, covered bool) {
	m := view.M()
	type item struct {
		fac  int
		gain int
	}
	less := func(a, b item) bool {
		if a.gain != b.gain {
			return a.gain > b.gain
		}
		if tie == core.TieLRU && lastUsed[a.fac] != lastUsed[b.fac] {
			return lastUsed[a.fac] < lastUsed[b.fac]
		}
		return a.fac < b.fac
	}
	heap := pq.NewHeap(less)
	view.Touched(func(j int) {
		if g := view.AssignedCount(j); g > 0 {
			heap.Push(item{fac: j, gain: g})
		}
	})

	isCovered := make([]bool, m)
	remaining := m
	gainOf := func(j int) int {
		gain := 0
		view.Assigned(j, func(c int) {
			if !isCovered[c] {
				gain++
			}
		})
		return gain
	}
	for len(selection) < k && heap.Len() > 0 {
		top := heap.Pop()
		if g := gainOf(top.fac); g != top.gain {
			if g > 0 {
				heap.Push(item{fac: top.fac, gain: g})
			}
			continue
		}
		if top.gain == 0 {
			break
		}
		selection = append(selection, top.fac)
		view.Assigned(top.fac, func(c int) {
			if !isCovered[c] {
				isCovered[c] = true
				remaining--
			}
		})
		if remaining == 0 {
			break
		}
	}

	deltaD = make([]bool, m)
	for i := range deltaD {
		deltaD[i] = !isCovered[i]
	}
	return selection, deltaD, remaining == 0
}

// TestCovererMatchesReference drives a Coverer and the reference through
// sequences of passes on random views whose assignments change between
// passes — shared customers, facilities emptied to zero load, new
// facilities touched in random order — with budgets below and above what
// full coverage needs, under both tie-breaks. Every pass must agree on
// the selection (in order), Δd and the coverage flag.
func TestCovererMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		m, l := 1+rng.Intn(30), 1+rng.Intn(25)
		tie := core.TieLRU
		if rng.Intn(3) == 0 {
			tie = core.TieArbitrary
		}
		view := newFakeCoverage(m, l)
		cov := core.NewCoverer(view, tie)
		lastUsed := make([]int, l)
		for j := range lastUsed {
			lastUsed[j] = -1
		}
		passes := 1 + rng.Intn(12)
		for pass := 1; pass <= passes; pass++ {
			// Reassign a random subset of facilities, in random order so
			// first touches arrive out of index order; some are emptied.
			for _, j := range rng.Perm(l)[:rng.Intn(l+1)] {
				load := 0
				if rng.Intn(5) > 0 {
					load = 1 + rng.Intn(1+min(m, 6))
				}
				view.set(j, rng.Perm(m)[:min(load, m)]...)
			}
			k := rng.Intn(l + 2)
			sel, deltaD, covered := cov.Cover(k)
			wantSel, wantDelta, wantCovered := checkCoverRef(legacyView{view}, k, lastUsed, tie)
			if !slices.Equal(sel, wantSel) || !slices.Equal(deltaD, wantDelta) || covered != wantCovered {
				t.Fatalf("trial %d pass %d (m=%d l=%d k=%d tie=%d):\n got  sel=%v covered=%v Δd=%v\n want sel=%v covered=%v Δd=%v",
					trial, pass, m, l, k, tie, sel, covered, deltaD, wantSel, wantCovered, wantDelta)
			}
			for _, j := range wantSel {
				lastUsed[j] = pass
			}
		}
	}
}

// TestCovererPassAllocatesOnlySelection: a pass reuses the Coverer's
// buffers, so once they are sized its one allocation is the returned
// selection.
func TestCovererPassAllocatesOnlySelection(t *testing.T) {
	view := fakeView(6, [][]int{{0, 1, 2}, {2, 3}, {3, 4}, {5}, {0, 5}})
	cov := core.NewCoverer(view, core.TieLRU)
	cov.Cover(3)
	if allocs := testing.AllocsPerRun(20, func() { cov.Cover(3) }); allocs > 1 {
		t.Fatalf("Cover allocated %v times per pass, want at most 1 (the selection)", allocs)
	}
}

func TestCheckCoverGreedyPicksByMarginalGain(t *testing.T) {
	// f0 covers {0,1,2}; f1 covers {2,3}; f2 covers {3}.
	// Greedy: f0 (gain 3), then f1 (marginal 1) ties with f2 (1) —
	// neither was ever selected, so index order picks f1. Coverage
	// complete.
	view := fakeView(4, [][]int{{0, 1, 2}, {2, 3}, {3}})
	sel, deltaD, covered := core.NewCoverer(view, core.TieLRU).Cover(2)
	if !covered {
		t.Fatal("coverage not detected")
	}
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 1 {
		t.Fatalf("selection = %v, want [0 1]", sel)
	}
	for i, d := range deltaD {
		if d {
			t.Fatalf("customer %d marked uncovered", i)
		}
	}
}

func TestCheckCoverStopsEarlyWhenCovered(t *testing.T) {
	view := fakeView(2, [][]int{{0, 1}, {1}, {0}})
	sel, _, covered := core.NewCoverer(view, core.TieLRU).Cover(3)
	if !covered || len(sel) != 1 {
		t.Fatalf("sel = %v covered = %v, want single facility", sel, covered)
	}
}

func TestCheckCoverLRUTieBreak(t *testing.T) {
	// Two earlier passes select f1, then f0, so f1 is the less recently
	// used when both tie at gain 1 on the third pass.
	for _, tc := range []struct {
		tie  core.TieBreak
		want int
	}{
		{core.TieLRU, 1},       // least recently used
		{core.TieArbitrary, 0}, // lower index
	} {
		view := newFakeCoverage(3, 2)
		cov := core.NewCoverer(view, tc.tie)
		view.set(1, 1)
		if sel, _, _ := cov.Cover(1); len(sel) != 1 || sel[0] != 1 {
			t.Fatalf("tie %d pass 1: selection = %v, want [1]", tc.tie, sel)
		}
		view.set(1)
		view.set(0, 0)
		if sel, _, _ := cov.Cover(1); len(sel) != 1 || sel[0] != 0 {
			t.Fatalf("tie %d pass 2: selection = %v, want [0]", tc.tie, sel)
		}
		view.set(1, 1)
		sel, _, covered := cov.Cover(1)
		if covered {
			t.Fatal("customer 2 is unassigned; cannot be covered")
		}
		if len(sel) != 1 || sel[0] != tc.want {
			t.Fatalf("tie %d pass 3: selection = %v, want [%d]", tc.tie, sel, tc.want)
		}
	}
}

func TestCheckCoverUncoveredDelta(t *testing.T) {
	view := fakeView(3, [][]int{{0}, {}, {}})
	sel, deltaD, covered := core.NewCoverer(view, core.TieLRU).Cover(2)
	if covered {
		t.Fatal("covered with unassigned customers")
	}
	if len(sel) != 1 {
		t.Fatalf("selection = %v (zero-gain facilities must not be selected)", sel)
	}
	want := []bool{false, true, true}
	if !slices.Equal(deltaD, want) {
		t.Fatalf("deltaD = %v, want %v", deltaD, want)
	}
}

func TestCheckCoverSharedCustomersRecount(t *testing.T) {
	// f0 and f1 both claim customers {0,1}; after selecting f0, f1's
	// stale gain (2) must be lazily corrected to 0 and f1 skipped.
	view := fakeView(3, [][]int{{0, 1}, {0, 1}, {2}})
	sel, _, covered := core.NewCoverer(view, core.TieLRU).Cover(2)
	if !covered {
		t.Fatal("not covered")
	}
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 2 {
		t.Fatalf("selection = %v, want [0 2]", sel)
	}
}
