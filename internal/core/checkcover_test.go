package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"mcfs/internal/core"
	"mcfs/internal/pq"
)

// fakeCoverage is a hand-built assignment view. Like the matcher, it
// records a facility as changed on every set, once until the next
// TakeChanged, whether or not its load moved.
type fakeCoverage struct {
	m         int
	assign    [][]int // per facility: assigned customers
	changed   []int32
	isChanged []bool
}

func newFakeCoverage(m, l int) *fakeCoverage {
	return &fakeCoverage{m: m, assign: make([][]int, l), isChanged: make([]bool, l)}
}

// fakeView builds a view with assign[j] assigned to facility j, set in
// index order.
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
	if !f.isChanged[j] {
		f.isChanged[j] = true
		f.changed = append(f.changed, int32(j))
	}
}

func (f *fakeCoverage) M() int                  { return f.m }
func (f *fakeCoverage) L() int                  { return len(f.assign) }
func (f *fakeCoverage) AssignedCount(j int) int { return len(f.assign[j]) }

func (f *fakeCoverage) TakeChanged() []int32 {
	out := f.changed
	for _, j := range out {
		f.isChanged[j] = false
	}
	f.changed = out[:0]
	return out
}

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
}

// legacyView adapts a fakeCoverage to legacyCoverage.
type legacyView struct{ *fakeCoverage }

func (v legacyView) Assigned(j int, fn func(int)) {
	for _, c := range v.assign[j] {
		fn(c)
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
	for j := 0; j < view.L(); j++ {
		if g := view.AssignedCount(j); g > 0 {
			heap.Push(item{fac: j, gain: g})
		}
	}

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

// countingView counts the loads a Coverer reads.
type countingView struct {
	*fakeCoverage
	reads int
}

func (v *countingView) AssignedCount(j int) int {
	v.reads++
	return v.fakeCoverage.AssignedCount(j)
}

// TestCovererMatchesReference drives a Coverer and the reference through
// sequences of passes on random views whose assignments change between
// passes — shared customers, facilities emptied to zero load, new
// facilities touched in random order, none at all — with budgets below
// and above what full coverage needs, under both tie-breaks. Every pass
// must agree on the selection (in order), Δd and the coverage flag, and
// read the loads of no more facilities than were set since the last
// pass.
func TestCovererMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		m, l := 1+rng.Intn(30), 1+rng.Intn(25)
		tie := core.TieLRU
		if rng.Intn(3) == 0 {
			tie = core.TieArbitrary
		}
		view := &countingView{fakeCoverage: newFakeCoverage(m, l)}
		cov := core.NewCoverer(view, tie)
		lastUsed := make([]int, l)
		for j := range lastUsed {
			lastUsed[j] = -1
		}
		passes := 1 + rng.Intn(12)
		for pass := 1; pass <= passes; pass++ {
			// Reassign a random subset of facilities, in random order so
			// first touches arrive out of index order; some are emptied.
			sets := rng.Intn(l + 1)
			for _, j := range rng.Perm(l)[:sets] {
				load := 0
				if rng.Intn(5) > 0 {
					load = 1 + rng.Intn(1+min(m, 6))
				}
				view.set(j, rng.Perm(m)[:min(load, m)]...)
			}
			k := rng.Intn(l + 2)
			view.reads = 0
			sel, deltaD, covered := cov.Cover(k)
			if view.reads > sets {
				t.Fatalf("trial %d pass %d: the pass read %d loads after %d sets", trial, pass, view.reads, sets)
			}
			wantSel, wantDelta, wantCovered := checkCoverRef(legacyView{view.fakeCoverage}, k, lastUsed, tie)
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

// FuzzCoverer decodes its input into a view and a sequence of steps
// over it, and checks every Cover pass against checkCoverRef, with the
// reference's tie-break state kept here. A Coverer keeps its buckets and
// keys from pass to pass, and stale state shows only over a sequence of
// passes. The first three bytes give m (1 to 16 customers), l (1 to 12
// facilities) and the tie-break (low bit: TieArbitrary). Each step then
// either runs a pass (a byte with the high bit set; its low bits give a
// budget from 0 to l+1) or reassigns one facility (any other byte, mod
// l) to the customers of the next two bytes' 16-bit mask. An empty mask
// drops a load to 0 and a later step can raise it again, and facilities
// are first touched in whatever order the input names them. A last pass
// with budget l ends every input.
func FuzzCoverer(f *testing.F) {
	// Loads that rise, drop to 0 and rise again.
	f.Add([]byte{3, 2, 0, 0, 0x07, 0, 1, 0x0c, 0, 0x81, 0, 0, 0, 0x82, 0, 0x0f, 0, 0x82})
	// First touches out of index order, both tie-breaks, budgets 0 and l+1.
	f.Add([]byte{7, 5, 0, 4, 0x03, 0, 1, 0x0c, 0, 3, 0x30, 0, 0x80, 0x87, 2, 0xc0, 0, 4, 0, 0, 0x82})
	f.Add([]byte{7, 5, 1, 4, 0x03, 0, 1, 0x0c, 0, 3, 0x30, 0, 0x80, 0x87, 2, 0xc0, 0, 4, 0, 0, 0x82})
	// Shared customers and repeated passes that select the same loads.
	f.Add([]byte{5, 3, 0, 0, 0x0f, 0, 1, 0x3c, 0, 2, 0x30, 0, 0x82, 0x82, 0x81, 3, 0x03, 0, 0x84, 0x81})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		in := make([]byte, 16+rng.Intn(48))
		rng.Read(in)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		m, l := 1+int(next()%16), 1+int(next()%12)
		tie := core.TieLRU
		if next()&1 == 1 {
			tie = core.TieArbitrary
		}
		view := newFakeCoverage(m, l)
		cov := core.NewCoverer(view, tie)
		lastUsed := make([]int, l)
		for j := range lastUsed {
			lastUsed[j] = -1
		}
		pass := 0
		run := func(k int) {
			pass++
			sel, deltaD, covered := cov.Cover(k)
			wantSel, wantDelta, wantCovered := checkCoverRef(legacyView{view}, k, lastUsed, tie)
			if !slices.Equal(sel, wantSel) || !slices.Equal(deltaD, wantDelta) || covered != wantCovered {
				t.Fatalf("pass %d (m=%d l=%d k=%d tie=%d, loads %v):\n got  sel=%v covered=%v Δd=%v\n want sel=%v covered=%v Δd=%v",
					pass, m, l, k, tie, view.assign, sel, covered, deltaD, wantSel, wantCovered, wantDelta)
			}
			for _, j := range wantSel {
				lastUsed[j] = pass
			}
		}
		for len(in) > 0 {
			op := next()
			if op&0x80 != 0 {
				run(int(op&0x7f) % (l + 2))
				continue
			}
			mask := int(next()) | int(next())<<8
			var custs []int
			for c := 0; c < m; c++ {
				if mask&(1<<c) != 0 {
					custs = append(custs, c)
				}
			}
			view.set(int(op)%l, custs...)
		}
		run(l)
	})
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
