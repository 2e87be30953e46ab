// Package dynamic implements the repeated-solving scenario that
// motivates MCFS in the paper's introduction: "the problem may need to
// be solved scalably and repeatedly, as in applications requiring the
// dynamic reallocation of customers to facilities."
//
// A Reallocator keeps a facility selection open while the customer
// population changes, and the running assignment is always the
// minimum-cost assignment of the current customers to the current
// selection. Arrivals are served incrementally: one optimal augmenting
// path each, reusing the engine's potentials and per-customer search
// state. Departures are repaired in place, at once: the customer's slot
// is freed, and only when its facility was full does one bounded search
// look for the single cost-reducing cycle through that slot
// (bipartite.Matcher.RemoveCustomerCtx). The matching is rebuilt from
// scratch only for a new selection: a full solve, an adoption or a
// restore. The facility selection itself is re-solved from scratch
// (full WMA) when the incremental assignment's cost drifts beyond a
// configurable factor of the last full solve, when an arrival cannot be
// served by the open facilities, or on explicit Refresh.
//
// The live population is a persistent copy-on-write table of pages of
// 64 consecutive handles (publish.go), whose entries carry each
// customer's node, matcher index and facility. After every matcher call
// the facilities of the customers it moved are updated, so the table is
// always the current assignment, and Freeze publishes it as a View in
// O(1): the writer then copies only the pages it writes. The objective is
// the matcher's running total, so every arrival's drift check is O(1).
//
// A failed operation leaves the state it found: a re-selection installs
// its selection and matching only once both are built, and a refused
// arrival is taken back out of the matcher it joined. Reads never
// rebuild anything.
package dynamic

import (
	"context"
	"errors"
	"fmt"

	"mcfs/internal/bipartite"
	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/graph"
	"mcfs/internal/obs"
)

// ErrUnknownHandle is returned by RemoveCustomer for a handle that is
// not (or no longer) live.
var ErrUnknownHandle = errors.New("dynamic: unknown customer handle")

// ErrBadNode is returned by AddCustomer for a node index outside the
// network.
var ErrBadNode = errors.New("dynamic: bad node")

// Options tunes a Reallocator.
type Options struct {
	// DriftFactor triggers a full re-selection when the incremental
	// objective exceeds DriftFactor × the objective right after the last
	// full solve. 0 selects the default 1.5 and a negative value disables
	// drift-triggered re-solves. Any other value must exceed 1: at or
	// below 1 almost every arrival would run a full solve, so NewCtx,
	// AdoptCtx and RestoreCtx reject it.
	DriftFactor float64
}

// Stats counts the work a Reallocator has performed.
type Stats struct {
	FullSolves int `json:"full_solves"` // complete WMA re-selections
	Rebuilds   int `json:"rebuilds"`    // assignment rebuilds (re-selections, adoptions, restores)
	Adoptions  int `json:"adoptions"`   // externally computed selections installed (Adopt*)
	Arrivals   int `json:"arrivals"`
	Departures int `json:"departures"`
}

// Reallocator maintains an MCFS solution under customer churn.
type Reallocator struct {
	ctx        context.Context // governs every operation; see SetContext
	g          *graph.Graph
	facilities []data.Facility // full candidate catalogue
	k          int
	opt        Options

	tab    table // live customers, ascending by handle
	nextID int

	// selected holds the global facility indexes currently open. It is
	// replaced, never written in place, so views share it.
	selected []int
	mt       *bipartite.Matcher
	handleOf []int // matcher customer index → handle
	moved    []int // scratch for the matcher's Moved

	baseObjective int64 // objective right after the last full solve
	stats         Stats
}

// NewCtx builds a Reallocator from an initial instance, performing one
// full solve. The instance's customers become handles 0..m-1.
//
// The context is retained and governs the initial full solve and every
// subsequent operation on the Reallocator (arrivals, rebuilds,
// drift-triggered re-selections); rebind it with SetContext. When the
// context fires mid-operation the method returns ctx.Err() and leaves
// the state it found, so the Reallocator stays usable and every read
// succeeds under any context. A departure never fails this way: its
// repair does not poll the context.
func NewCtx(ctx context.Context, inst *data.Instance, opt Options) (*Reallocator, error) {
	r, err := skeleton(ctx, inst, opt)
	if err != nil {
		return nil, err
	}
	r.enroll(inst.Customers)
	if err := r.fullSolve(); err != nil {
		return nil, err
	}
	return r, nil
}

// AdoptCtx builds a Reallocator around an externally computed facility
// selection instead of running WMA: the instance's customers become
// handles 0..m-1, the selection is installed as-is, and the optimal
// assignment to it is built. This is how a serving process starts from
// any registered algorithm's solution (or any custom strategy) and then
// maintains it incrementally. The context contract matches NewCtx.
func AdoptCtx(ctx context.Context, inst *data.Instance, selected []int, opt Options) (*Reallocator, error) {
	r, err := skeleton(ctx, inst, opt)
	if err != nil {
		return nil, err
	}
	r.enroll(inst.Customers)
	if err := r.adopt(selected); err != nil {
		return nil, err
	}
	r.stats.Adoptions++
	return r, nil
}

// skeleton validates the instance and the options and builds an empty
// Reallocator with no customers, no selection, and no matching.
func skeleton(ctx context.Context, inst *data.Instance, opt Options) (*Reallocator, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	switch f := opt.DriftFactor; {
	case f == 0:
		opt.DriftFactor = 1.5
	case !(f > 1 || f < 0):
		return nil, fmt.Errorf("dynamic: DriftFactor %v: 0 means the default 1.5, a negative value disables drift re-solves, and any other value must exceed 1", f)
	}
	return &Reallocator{
		ctx:        ctx,
		g:          inst.G,
		facilities: inst.Facilities,
		k:          inst.K,
		opt:        opt,
	}, nil
}

// enroll adds customers at nodes as the next handles, unassigned until
// the rebuild that must follow.
func (r *Reallocator) enroll(nodes []int32) {
	for i, node := range nodes {
		r.tab.add(r.nextID, entry{node: node, idx: int32(i), fac: -1})
		r.nextID++
	}
}

// instance materializes a population over the network and catalogue.
func (r *Reallocator) instance(custs []int32) *data.Instance {
	return &data.Instance{G: r.g, Customers: custs, Facilities: r.facilities, K: r.k}
}

// SetContext rebinds the context governing subsequent operations
// (nil restores context.Background()). An operation that failed under
// the previous context left nothing to recover: the next one under a
// live context proceeds from the state before it.
func (r *Reallocator) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.ctx = ctx
}

// fullSolve re-selects facilities with WMA and rebuilds the matching;
// on error it changes nothing.
func (r *Reallocator) fullSolve() error {
	r.rec().Add(obs.ReallocFullSolves, 1)
	_, nodes := r.tab.population()
	sol, err := core.SolveCtx(r.ctx, r.instance(nodes), core.Options{})
	if err != nil {
		return err
	}
	if err := r.rebuild(sol.Selected); err != nil {
		return err
	}
	r.stats.FullSolves++
	return nil
}

// AdoptSelection installs an externally computed facility selection —
// e.g. a full re-solve by any registered algorithm — and rebuilds the
// optimal assignment of the live population to it. On failure
// (unservable population, cancellation) nothing changes. Success resets
// the drift baseline, exactly like a WMA re-selection.
func (r *Reallocator) AdoptSelection(selected []int) error {
	if err := r.adopt(selected); err != nil {
		return err
	}
	r.stats.Adoptions++
	return nil
}

// adopt validates a selection and rebuilds the matching for it; on
// error it changes nothing.
func (r *Reallocator) adopt(selected []int) error {
	if len(selected) > r.k {
		return fmt.Errorf("dynamic: selection of %d facilities exceeds budget k=%d", len(selected), r.k)
	}
	if _, err := r.instance(nil).CheckSelection(selected); err != nil {
		return err
	}
	return r.rebuild(append([]int(nil), selected...))
}

// rec returns the recorder bound to the Reallocator's current context
// (nil when none). Looked up per operation so SetContext rebinds
// observability along with cancellation.
func (r *Reallocator) rec() *obs.Recorder { return obs.From(r.ctx) }

// rebuild builds the optimal assignment of the live customers to the
// facilities in selected, indexing the matcher's customers in handle
// order. Only once it is built does rebuild install the selection, the
// matching, a fresh live table and the drift baseline, so on error it
// changes nothing.
func (r *Reallocator) rebuild(selected []int) error {
	if p := r.rec().Phase("repair"); p != nil {
		defer p.End()
	}
	subset := make([]data.Facility, len(selected))
	for i, j := range selected {
		subset[i] = r.facilities[j]
	}
	handles, custs := r.tab.population()
	mt := bipartite.New(r.g, custs, subset)
	for i := range custs {
		ok, err := mt.FindPairCtx(r.ctx, i)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("dynamic: customer %d unservable by open facilities: %w", handles[i], data.ErrInfeasible)
		}
	}
	r.selected = selected
	r.mt = mt
	r.handleOf = handles
	r.tab = table{}
	for i, h := range handles {
		fac, _, _ := mt.Match(i)
		r.tab.add(h, entry{node: custs[i], idx: int32(i), fac: int32(selected[fac])})
	}
	r.baseObjective = mt.TotalMatchedCost()
	r.stats.Rebuilds++
	rec := r.rec()
	rec.Add(obs.ReallocRepairs, 1)
	rec.Add(obs.ReallocReroutedCustomers, int64(len(custs)))
	return nil
}

// AddCustomer admits a new customer at the given network node and
// returns its handle. The arrival is assigned incrementally; if the open
// facilities cannot serve it (capacity exhausted or unreachable), a full
// re-selection runs, and data.ErrInfeasible is returned only when even
// the full candidate catalogue cannot serve the population. An arrival
// that lifts the objective past DriftFactor × the baseline re-selects
// inline, under the same context. An error admits no customer, uses up
// no handle and counts no arrival: whichever step failed, the newcomer
// is taken back out of the matcher it joined, since a failed
// re-selection installs nothing.
func (r *Reallocator) AddCustomer(node int32) (int, error) {
	if node < 0 || int(node) >= r.g.N() {
		return 0, fmt.Errorf("%w: node %d outside [0,%d)", ErrBadNode, node, r.g.N())
	}
	// nextID exceeds every live handle, so appending keeps the order.
	h := r.nextID
	idx := r.mt.AddCustomer(node)
	r.handleOf = append(r.handleOf, h)
	r.tab.add(h, entry{node: node, idx: int32(idx), fac: -1})
	if err := r.admit(idx); err != nil {
		r.remove(h, idx)
		return 0, err
	}
	r.nextID++
	r.stats.Arrivals++
	return h, nil
}

// admit assigns matcher customer idx, re-selecting with it included
// when the open facilities cannot serve it or its assignment drifts the
// objective past the bound.
func (r *Reallocator) admit(idx int) error {
	ok, err := r.mt.FindPairCtx(r.ctx, idx)
	if err != nil {
		return err
	}
	r.settle()
	if !ok || r.driftExceeded() {
		return r.fullSolve()
	}
	return nil
}

// RemoveCustomer applies a customer's departure at once: the matching
// is repaired in place (see the package doc), so the assignment stays
// optimal with no rebuild. Only an unknown handle is an error; the
// repair does not poll the context, so a live handle is always removed.
func (r *Reallocator) RemoveCustomer(handle int) error {
	e, ok := r.tab.get(handle)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownHandle, handle)
	}
	r.remove(handle, int(e.idx))
	r.stats.Departures++
	return nil
}

// remove takes live customer handle, at matcher index idx, out of the
// matcher and repairs the matching in place. Every customer in the
// matcher holds one match, a refused newcomer at most one, so the repair
// cannot fail.
func (r *Reallocator) remove(handle, idx int) {
	moved, err := r.mt.RemoveCustomerCtx(r.ctx, idx)
	if err != nil {
		panic(err)
	}
	// The matcher moved its last customer into the freed index.
	last := len(r.handleOf) - 1
	if idx != last {
		h := r.handleOf[last]
		r.handleOf[idx] = h
		r.tab.at(h).idx = int32(idx)
	}
	r.handleOf = r.handleOf[:last]
	r.tab.delete(handle)
	r.settle()
	rec := r.rec()
	rec.Add(obs.ReallocRepairs, 1)
	rec.Add(obs.ReallocReroutedCustomers, int64(moved))
}

// settle records the facility of every customer the matcher's last
// call moved.
func (r *Reallocator) settle() {
	r.moved = r.mt.Moved(r.moved[:0])
	for _, idx := range r.moved {
		fac, _, _ := r.mt.Match(idx)
		r.tab.at(r.handleOf[idx]).fac = int32(r.selected[fac])
	}
}

// HasCustomer reports whether handle names a live customer.
func (r *Reallocator) HasCustomer(handle int) bool {
	_, ok := r.tab.get(handle)
	return ok
}

func (r *Reallocator) driftExceeded() bool {
	if r.opt.DriftFactor <= 0 {
		return false
	}
	cur := r.mt.TotalMatchedCost()
	return float64(cur) > r.opt.DriftFactor*float64(r.baseObjective)+0.5
}

// Objective returns the current total assignment distance. The error is
// always nil; it is kept for API stability.
func (r *Reallocator) Objective() (int64, error) {
	return r.mt.TotalMatchedCost(), nil
}

// Selected returns the currently open facilities as indexes into the
// candidate catalogue.
func (r *Reallocator) Selected() []int {
	return append([]int(nil), r.selected...)
}

// Assignment returns the current customer→facility mapping keyed by
// handle, with facility values indexing the candidate catalogue. It
// reads the matcher's customers in index order, not the live population.
func (r *Reallocator) Assignment() (map[int]int, error) {
	out := make(map[int]int, r.tab.n)
	for idx, h := range r.handleOf {
		fac, _, ok := r.mt.Match(idx)
		if !ok {
			return nil, fmt.Errorf("dynamic: customer %d holds %d assignments", h, r.mt.MatchCount(idx))
		}
		out[h] = r.selected[fac]
	}
	return out, nil
}

// Solution materializes a data.Solution for the current population (in
// handle order) — convenient for CheckSolution-style verification.
func (r *Reallocator) Solution() (*data.Instance, *data.Solution, error) {
	p, err := r.Publish()
	if err != nil {
		return nil, nil, err
	}
	return r.instance(p.Nodes), &data.Solution{Selected: p.Selected, Assignment: p.Assignment, Objective: p.Objective}, nil
}

// Customers returns the number of live customers.
func (r *Reallocator) Customers() int { return r.tab.n }

// Stats returns work counters.
func (r *Reallocator) Stats() Stats { return r.stats }

// Refresh forces a full re-selection and rebuild.
func (r *Reallocator) Refresh() error { return r.fullSolve() }
