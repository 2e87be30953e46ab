// Package solver provides exact MCFS solvers standing in for the Gurobi
// Optimizer used in the paper's evaluation:
//
//   - ExhaustiveCtx enumerates every k-subset of candidate facilities and
//     evaluates the optimal transportation assignment for each — the
//     obviously-correct yardstick for tiny instances;
//   - BranchAndBoundCtx is a MIP-style exact search over the selection
//     variables x_j with a transportation-relaxation lower bound (all
//     undecided facilities open), matching Gurobi's role: it returns the
//     optimal objective and, like the paper's Gurobi runs, becomes
//     intractable as ℓ and n grow. A time budget reproduces the paper's
//     "Gurobi fails beyond 24 hours" regime.
//
// Both return data.ErrInfeasible on infeasible instances and rely on the
// shared optimal-assignment primitive core.AssignToSelectionCtx.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"time"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/obs"
)

// ErrTimeout is returned by BranchAndBoundCtx when the time budget expires
// before optimality is proven. When the budget is enforced through a
// context deadline, the returned error wraps both ErrTimeout and
// context.DeadlineExceeded, so errors.Is matches either.
var ErrTimeout = errors.New("solver: time budget exhausted")

// timeoutErr maps a context deadline expiry onto the package's ErrTimeout
// contract while preserving the context error for errors.Is chains; plain
// cancellations pass through unchanged.
func timeoutErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	return err
}

// ErrTooLarge is returned by ExhaustiveCtx when the number of subsets to
// enumerate exceeds subsetCap.
var ErrTooLarge = errors.New("solver: instance too large for exhaustive enumeration")

// subsetCap caps the subsets ExhaustiveCtx enumerates.
const subsetCap = 1_000_000

// ExhaustiveCtx computes the optimal solution by enumerating all
// C(ℓ, min(k,ℓ)) facility subsets. It refuses instances with more than
// subsetCap combinations.
// Cancellation is checked before each subset's assignment solve; on
// cancellation it returns the best solution found so far (nil when none)
// alongside ctx.Err(). Every uncancelled run is byte-identical.
func ExhaustiveCtx(ctx context.Context, inst *data.Instance) (*data.Solution, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if ok, _ := inst.Feasible(); !ok {
		return nil, data.ErrInfeasible
	}
	l := inst.L()
	k := inst.K
	if k > l {
		k = l
	}
	if inst.M() == 0 {
		return &data.Solution{Selected: []int{}, Assignment: []int{}}, nil
	}
	count := new(big.Int).Binomial(int64(l), int64(k))
	if count.Cmp(big.NewInt(subsetCap)) > 0 {
		return nil, fmt.Errorf("%w: C(%d,%d) = %s subsets", ErrTooLarge, l, k, count)
	}

	// Adding facilities never hurts, so only subsets of size exactly k
	// need checking.
	subset := make([]int, k)
	for i := range subset {
		subset[i] = i
	}
	var best *data.Solution
	for {
		if err := ctx.Err(); err != nil {
			return best, err
		}
		sol, err := core.AssignToSelectionCtx(ctx, inst, append([]int(nil), subset...))
		if err == nil && (best == nil || sol.Objective < best.Objective) {
			best = sol
		} else if err != nil && !errors.Is(err, data.ErrInfeasible) {
			if ctx.Err() != nil {
				return best, err
			}
			return nil, err
		}
		// Next combination in lexicographic order.
		i := k - 1
		for i >= 0 && subset[i] == l-k+i {
			i--
		}
		if i < 0 {
			break
		}
		subset[i]++
		for j := i + 1; j < k; j++ {
			subset[j] = subset[j-1] + 1
		}
	}
	if best == nil {
		return nil, data.ErrInfeasible
	}
	return best, nil
}

// Options configures BranchAndBoundCtx.
type Options struct {
	// TimeBudget bounds the wall-clock search time; zero means no limit.
	TimeBudget time.Duration
}

// Result carries the solution plus search diagnostics.
type Result struct {
	Solution *data.Solution
	Nodes    int  // search-tree nodes explored
	Optimal  bool // proven optimal (false only when cut short)
}

// BranchAndBoundCtx computes the optimal MCFS solution via best-first
// branch and bound on the facility-selection variables.
//
// Relaxation: at a node with sets (included I, excluded X), the lower
// bound is the optimal transportation cost with every non-excluded
// facility open and no cardinality constraint — valid because any
// completion selects a subset of the open facilities, and shrinking the
// open set can only raise the optimal assignment cost. If the relaxed
// assignment happens to use at most k facilities (counting every
// included one), the bound is attained and the node closes with an
// incumbent update.
//
// A positive Options.TimeBudget is enforced as a context deadline
// layered on top of ctx; when it expires the returned error wraps both
// ErrTimeout and context.DeadlineExceeded. On any cancellation the
// search stops promptly — ctx is checked per frontier node and inside
// every relaxation solve — and, exactly as on a time budget expiry, the
// best verified incumbent found so far is returned alongside the error
// (Result.Optimal is false); when no incumbent exists yet the Result is
// nil. Every uncancelled, unexpired run is byte-identical.
func BranchAndBoundCtx(ctx context.Context, inst *data.Instance, opt Options) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if ok, _ := inst.Feasible(); !ok {
		return nil, data.ErrInfeasible
	}
	if inst.M() == 0 {
		return &Result{Solution: &data.Solution{Selected: []int{}, Assignment: []int{}}, Optimal: true}, nil
	}
	if opt.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.TimeBudget)
		defer cancel()
	}
	if p := obs.From(ctx).Phase("bnb/solve"); p != nil {
		defer p.End()
	}
	l := inst.L()
	k := inst.K
	if k >= l {
		sol, err := core.AssignToSelectionCtx(ctx, inst, allIndexes(l))
		if err != nil {
			return nil, timeoutErr(err)
		}
		return &Result{Solution: sol, Optimal: true}, nil
	}

	s := &search{ctx: ctx, inst: inst, k: k, rec: obs.From(ctx)}
	// Warm start: seed the incumbent with the WMA heuristic, exactly as
	// MIP solvers accept a starting solution. This sharpens pruning and
	// guarantees that a timed-out search never reports worse than the
	// heuristic. Exactness is unaffected.
	if warm, err := core.SolveCtx(ctx, inst, core.Options{}); err == nil {
		s.incumbent = warm
	}
	root := &node{excluded: make([]bool, l), included: nil}
	if err := s.evaluate(root); err != nil && !errors.Is(err, data.ErrInfeasible) {
		if ctx.Err() != nil {
			return s.finish(timeoutErr(err))
		}
		return nil, err
	}
	if root.infeasible {
		return nil, data.ErrInfeasible
	}
	s.frontier = append(s.frontier, root)
	for len(s.frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return s.finish(timeoutErr(err))
		}
		n := s.popBest()
		if s.incumbent != nil && n.bound >= s.incumbent.Objective {
			s.rec.Add(obs.BnBNodesPruned, 1)
			continue
		}
		if err := s.branch(n); err != nil {
			if ctx.Err() != nil {
				return s.finish(timeoutErr(err))
			}
			return nil, err
		}
	}
	if s.incumbent == nil {
		return nil, data.ErrInfeasible
	}
	return &Result{Solution: s.incumbent, Nodes: s.nodes, Optimal: true}, nil
}

type node struct {
	included   []int
	excluded   []bool
	bound      int64
	branchOn   int // undecided facility chosen for branching, -1 when closed
	infeasible bool
}

type search struct {
	ctx       context.Context
	inst      *data.Instance
	k         int
	frontier  []*node // best-first by bound (simple slice scan: trees stay small)
	incumbent *data.Solution
	nodes     int
	rec       *obs.Recorder // nil-safe; counts expansions/prunes/incumbents
}

// better installs sol as the incumbent when it improves on the current
// one, reporting whether it did. All incumbent updates go through here
// so the update count is exact.
func (s *search) better(sol *data.Solution) bool {
	if s.incumbent != nil && sol.Objective >= s.incumbent.Objective {
		return false
	}
	s.incumbent = sol
	s.rec.Add(obs.BnBIncumbentUpdates, 1)
	return true
}

func (s *search) popBest() *node {
	best := 0
	for i := 1; i < len(s.frontier); i++ {
		if s.frontier[i].bound < s.frontier[best].bound {
			best = i
		}
	}
	n := s.frontier[best]
	s.frontier[best] = s.frontier[len(s.frontier)-1]
	s.frontier = s.frontier[:len(s.frontier)-1]
	return n
}

// evaluate computes the node's relaxation bound, closing it (and
// updating the incumbent) when the relaxed assignment is feasible for
// the original problem.
func (s *search) evaluate(n *node) error {
	s.nodes++
	s.rec.Add(obs.BnBNodesExpanded, 1)
	open := make([]int, 0, s.inst.L())
	for j := 0; j < s.inst.L(); j++ {
		if !n.excluded[j] {
			open = append(open, j)
		}
	}
	relaxed, err := core.AssignToSelectionCtx(s.ctx, s.inst, open)
	if err != nil {
		if errors.Is(err, data.ErrInfeasible) {
			n.infeasible = true
			return nil
		}
		return err
	}
	n.bound = relaxed.Objective
	// Facilities actually used by the relaxed assignment, plus every
	// included one (they count against the budget regardless).
	used := map[int]bool{}
	for _, j := range n.included {
		used[j] = true
	}
	for _, j := range relaxed.Assignment {
		used[j] = true
	}
	if len(used) <= s.k {
		// Bound attained feasibly: relaxed solution is a valid incumbent.
		selected := make([]int, 0, len(used))
		for j := range used {
			selected = append(selected, j)
		}
		sort.Ints(selected)
		sol := &data.Solution{Selected: selected, Assignment: relaxed.Assignment, Objective: relaxed.Objective}
		s.better(sol)
		n.branchOn = -1
		return nil
	}
	// Greedy dive: round the relaxation to a feasible incumbent by
	// keeping the k most-loaded used facilities (including every included
	// one) and re-solving the assignment — a standard primal heuristic
	// that tightens pruning long before leaves are reached.
	s.dive(n, relaxed)

	// Branch on the undecided facility carrying the most relaxed load.
	load := map[int]int{}
	for _, j := range relaxed.Assignment {
		load[j]++
	}
	bestJ, bestLoad := -1, -1
	includedSet := map[int]bool{}
	for _, j := range n.included {
		includedSet[j] = true
	}
	for j, c := range load {
		if includedSet[j] {
			continue
		}
		if c > bestLoad || (c == bestLoad && j < bestJ) {
			bestJ, bestLoad = j, c
		}
	}
	n.branchOn = bestJ
	return nil
}

// dive rounds a node's relaxed assignment into a feasible selection:
// the node's included facilities plus the most-loaded remaining used
// facilities, up to k, evaluated exactly. Improvements become the
// incumbent; failures are ignored.
func (s *search) dive(n *node, relaxed *data.Solution) {
	load := map[int]int{}
	for _, j := range relaxed.Assignment {
		load[j]++
	}
	pick := map[int]bool{}
	for _, j := range n.included {
		pick[j] = true
	}
	used := make([]int, 0, len(load))
	for j := range load {
		if !pick[j] {
			used = append(used, j)
		}
	}
	sort.Slice(used, func(a, b int) bool {
		if load[used[a]] != load[used[b]] {
			return load[used[a]] > load[used[b]]
		}
		return used[a] < used[b]
	})
	for _, j := range used {
		if len(pick) >= s.k {
			break
		}
		pick[j] = true
	}
	selected := make([]int, 0, len(pick))
	for j := range pick {
		selected = append(selected, j)
	}
	sort.Ints(selected)
	sol, err := core.AssignToSelectionCtx(s.ctx, s.inst, selected)
	if err != nil {
		return
	}
	s.better(sol)
}

// branch expands a node into include/exclude children.
func (s *search) branch(n *node) error {
	if n.branchOn < 0 {
		return nil // closed at evaluation time
	}
	// Include child.
	if len(n.included)+1 <= s.k {
		inc := &node{
			included: append(append([]int(nil), n.included...), n.branchOn),
			excluded: n.excluded, // include shares the exclusion mask
		}
		if len(inc.included) == s.k {
			// Fully determined selection: evaluate exactly.
			sol, err := core.AssignToSelectionCtx(s.ctx, s.inst, append([]int(nil), inc.included...))
			s.nodes++
			s.rec.Add(obs.BnBNodesExpanded, 1)
			if err == nil {
				s.better(sol)
			} else if !errors.Is(err, data.ErrInfeasible) {
				return err
			}
		} else {
			if err := s.evaluate(inc); err != nil {
				return err
			}
			if !inc.infeasible && (s.incumbent == nil || inc.bound < s.incumbent.Objective) {
				s.frontier = append(s.frontier, inc)
			}
		}
	}
	// Exclude child: copy the mask.
	exc := &node{
		included: n.included,
		excluded: append([]bool(nil), n.excluded...),
	}
	exc.excluded[n.branchOn] = true
	if err := s.evaluate(exc); err != nil {
		return err
	}
	if !exc.infeasible && (s.incumbent == nil || exc.bound < s.incumbent.Objective) {
		s.frontier = append(s.frontier, exc)
	}
	return nil
}

// finish returns the best-so-far result annotated with the limiting
// error when the search was cut short.
func (s *search) finish(cause error) (*Result, error) {
	if s.incumbent == nil {
		return nil, cause
	}
	return &Result{Solution: s.incumbent, Nodes: s.nodes, Optimal: false}, cause
}

func allIndexes(l int) []int {
	ix := make([]int, l)
	for i := range ix {
		ix[i] = i
	}
	return ix
}
