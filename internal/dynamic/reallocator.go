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
// The live population is one slice in ascending handle order whose
// entries carry their matcher index: a handle is found by binary search,
// and reads walk the population by position. The objective is the
// matcher's running total, so every arrival's drift check is O(1).
//
// A failed operation leaves the state it found: a re-selection installs
// its selection and matching only once both are built, and a refused
// arrival is taken back out of the matcher it joined. Reads never
// rebuild anything.
package dynamic

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

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
	// Core configures the underlying WMA solves.
	Core core.Options
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

	live   []customer // live customers, ascending by handle
	nextID int

	selected []int // global facility indexes currently open
	mt       *bipartite.Matcher
	handleOf []int // matcher customer index → handle

	baseObjective int64 // objective right after the last full solve
	stats         Stats
}

// customer is a live customer: its handle, network node and matcher index.
type customer struct {
	handle int
	node   int32
	idx    int32
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
	for _, node := range inst.Customers {
		r.live = append(r.live, customer{handle: r.nextID, node: node})
		r.nextID++
	}
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
	for _, node := range inst.Customers {
		r.live = append(r.live, customer{handle: r.nextID, node: node})
		r.nextID++
	}
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

// nodes returns the live customers' network nodes in handle order.
func (r *Reallocator) nodes() []int32 {
	out := make([]int32, len(r.live))
	for i, c := range r.live {
		out[i] = c.node
	}
	return out
}

// instance materializes a population over the network and catalogue.
func (r *Reallocator) instance(custs []int32) *data.Instance {
	return &data.Instance{G: r.g, Customers: custs, Facilities: r.facilities, K: r.k}
}

// find returns handle's position in the live population, if it is live.
func (r *Reallocator) find(handle int) (i int, ok bool) {
	return slices.BinarySearchFunc(r.live, handle, func(c customer, h int) int { return cmp.Compare(c.handle, h) })
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
	sol, err := core.SolveCtx(r.ctx, r.instance(r.nodes()), r.opt.Core)
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
	seen := make(map[int]bool, len(selected))
	for _, j := range selected {
		if j < 0 || j >= len(r.facilities) {
			return fmt.Errorf("dynamic: selected facility index %d out of range", j)
		}
		if seen[j] {
			return fmt.Errorf("dynamic: facility %d selected twice", j)
		}
		seen[j] = true
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
// matching and the drift baseline, so on error it changes nothing.
func (r *Reallocator) rebuild(selected []int) error {
	if p := r.rec().Phase("repair"); p != nil {
		defer p.End()
	}
	subset := make([]data.Facility, len(selected))
	for i, j := range selected {
		subset[i] = r.facilities[j]
	}
	custs := r.nodes()
	mt := bipartite.New(r.g, custs, subset)
	mt.SetExhaustive(r.opt.Core.Exhaustive)
	for i := range custs {
		ok, err := mt.FindPairCtx(r.ctx, i)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("dynamic: customer %d unservable by open facilities: %w", r.live[i].handle, data.ErrInfeasible)
		}
	}
	r.selected = selected
	r.mt = mt
	r.handleOf = slices.Grow(r.handleOf[:0], len(r.live))
	for i := range r.live {
		r.live[i].idx = int32(i)
		r.handleOf = append(r.handleOf, r.live[i].handle)
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
	r.live = append(r.live, customer{handle: h, node: node, idx: int32(idx)})
	r.handleOf = append(r.handleOf, h)
	if err := r.admit(idx); err != nil {
		r.remove(len(r.live) - 1)
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
	i, ok := r.find(handle)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownHandle, handle)
	}
	r.remove(i)
	r.stats.Departures++
	return nil
}

// remove takes the live customer at position i out of the matcher and
// repairs the matching in place. Every customer in the matcher holds one
// match, a refused newcomer at most one, so the repair cannot fail.
func (r *Reallocator) remove(i int) {
	c := r.live[i]
	moved, err := r.mt.RemoveCustomerCtx(r.ctx, int(c.idx))
	if err != nil {
		panic(err)
	}
	// The matcher moved its last customer into the freed index.
	last := len(r.handleOf) - 1
	if int(c.idx) != last {
		h := r.handleOf[last]
		r.handleOf[c.idx] = h
		j, _ := r.find(h)
		r.live[j].idx = c.idx
	}
	r.handleOf = r.handleOf[:last]
	r.live = slices.Delete(r.live, i, i+1)
	rec := r.rec()
	rec.Add(obs.ReallocRepairs, 1)
	rec.Add(obs.ReallocReroutedCustomers, int64(moved))
}

// HasCustomer reports whether handle names a live customer.
func (r *Reallocator) HasCustomer(handle int) bool {
	_, ok := r.find(handle)
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
	out := make(map[int]int, len(r.live))
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
func (r *Reallocator) Customers() int { return len(r.live) }

// Stats returns work counters.
func (r *Reallocator) Stats() Stats { return r.stats }

// Refresh forces a full re-selection and rebuild.
func (r *Reallocator) Refresh() error { return r.fullSolve() }
