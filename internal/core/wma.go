// Package core implements the Wide Matching Algorithm (WMA), the paper's
// primary contribution (§IV): an iterative interplay between
//
//   - an optimal incremental bipartite matching that assigns customers to
//     candidate facilities under capacity constraints, rewiring earlier
//     assignments when beneficial (internal/bipartite);
//   - a lazy-greedy SET COVER heuristic that selects the top-k facilities
//     by marginal coverage gain, breaking ties by least-recent use
//     (Algorithm 3, CheckCover, run by a per-solve Coverer);
//   - a selective demand-update rule that lets only uncovered customers
//     explore more facilities (§IV-F);
//   - two special provisions: greedy completion when coverage is achieved
//     with fewer than k facilities (Algorithm 4), and per-component
//     capacity balancing when coverage is impossible within explored
//     edges (Algorithm 5);
//   - a final phase that rebuilds a single optimal assignment of every
//     customer to the selected facilities (the tail recursion of
//     Algorithm 1).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mcfs/internal/bipartite"
	"mcfs/internal/data"
	"mcfs/internal/obs"
)

// DemandPolicy controls which customers get a demand increase per
// iteration (§IV-F).
type DemandPolicy int

const (
	// DemandSelective raises demand only for customers left uncovered by
	// the previous selection — the paper's policy.
	DemandSelective DemandPolicy = iota
	// DemandAll raises every unsatisfied customer's demand each iteration
	// (the "simple approach" the paper rejects; kept for ablation).
	DemandAll
)

// TieBreak controls how equal-gain facilities are ordered by the
// set-cover pass (Coverer).
type TieBreak int

const (
	// TieLRU prefers the facility selected least recently (the paper's
	// diversification strategy).
	TieLRU TieBreak = iota
	// TieArbitrary breaks ties by facility index (ablation).
	TieArbitrary
)

// IterationStats describes one WMA iteration for progress reporting
// (Fig. 12b plots covered customers, matching time and set-cover time
// per iteration).
type IterationStats struct {
	Iteration   int
	Covered     int           // customers covered by the current selection
	MatchTime   time.Duration // time spent in FindPair calls this iteration
	CoverTime   time.Duration // time spent in CheckCover this iteration
	Edges       int           // cumulative bipartite edges materialized
	Augmenting  int           // cumulative augmentations
	DemandTotal int           // sum of customer demands after the update
}

// Options tunes the solver. The zero value is the paper's configuration.
type Options struct {
	Demand     DemandPolicy
	TieBreak   TieBreak
	Exhaustive bool // disable the matcher's early-stop optimization
	// Progress, when non-nil, is invoked after every main-loop iteration.
	Progress func(IterationStats)
	// MaxIterations guards against runaway loops; 0 means the theoretical
	// bound m·ℓ + ℓ + 2 from the paper's analysis (§VI).
	MaxIterations int
}

// ErrIterationLimit is returned if the main loop exceeds its iteration
// bound — which indicates a bug rather than a property of the input.
var ErrIterationLimit = errors.New("wma: iteration limit exceeded")

// SolveCtx runs WMA on the instance and returns a feasible solution of
// minimized (heuristic) total distance. It returns data.ErrInfeasible
// when no feasible solution exists.
//
// ctx is checked once per WMA iteration, per augmenting-path search
// inside the matcher, and every ~4096 heap pops of the underlying
// network searches. On cancellation it returns nil and ctx.Err() — WMA
// holds no feasible incumbent until its final assignment phase
// completes, so there is no partial solution to salvage (unlike the
// exact solver's branch and bound). The checkpoints never alter the
// algorithm, so every uncancelled run produces byte-identical output.
func SolveCtx(ctx context.Context, inst *data.Instance, opt Options) (*data.Solution, error) {
	if p := obs.From(ctx).Phase("wma/solve"); p != nil {
		defer p.End()
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	feasible, _ := inst.Feasible()
	if !feasible {
		return nil, data.ErrInfeasible
	}
	m, l := inst.M(), inst.L()
	if m == 0 {
		return &data.Solution{Selected: []int{}, Assignment: []int{}}, nil
	}

	var selected []int
	if l <= inst.K {
		// Budget covers every candidate: selection is trivial.
		selected = make([]int, l)
		for j := range selected {
			selected[j] = j
		}
	} else {
		var err error
		selected, err = explore(ctx, inst, opt)
		if err != nil {
			return nil, err
		}
	}
	return AssignToSelectionCtx(ctx, inst, selected, opt)
}

// explore is the main loop of Algorithm 1: it grows customer demands,
// maintains an optimal bipartite matching, and stops when the set-cover
// heuristic finds k facilities covering all customers (or no further
// progress is possible). It returns the selected facility indexes.
func explore(ctx context.Context, inst *data.Instance, opt Options) ([]int, error) {
	m, l, k := inst.M(), inst.L(), inst.K
	mt := bipartite.New(inst.G, inst.Customers, inst.Facilities)
	mt.SetExhaustive(opt.Exhaustive)

	demand := make([]int, m)
	for i := range demand {
		demand[i] = 1
	}
	exhausted := make([]bool, m) // FindPair permanently unsatisfiable
	cover := NewCoverer(mt, opt.TieBreak)

	maxIter := opt.MaxIterations
	if maxIter == 0 {
		maxIter = m*l + l + 2
	}

	rec := obs.From(ctx)
	var selection []int
	var covered bool
	for iter := 1; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if iter > maxIter {
			return nil, fmt.Errorf("%w (%d iterations)", ErrIterationLimit, maxIter)
		}
		iterPhase := rec.Phase("wma/iterate")
		rec.Add(obs.WMAIterations, 1)
		//lint:ignore determinism IterationStats timing for the Progress callback; never feeds back into the algorithm
		matchStart := time.Now()
		matchPhase := rec.Phase("wma/match")
		for i := 0; i < m; i++ {
			for !exhausted[i] && mt.MatchCount(i) < demand[i] {
				ok, err := mt.FindPairCtx(ctx, i)
				if err != nil {
					return nil, err
				}
				if !ok {
					exhausted[i] = true
				}
			}
		}
		matchPhase.End()
		matchTime := time.Since(matchStart)

		//lint:ignore determinism IterationStats timing for the Progress callback; never feeds back into the algorithm
		coverStart := time.Now()
		coverPhase := rec.Phase("wma/cover")
		var deltaD []bool
		selection, deltaD, covered = cover.Cover(k)
		coverPhase.End()
		coverTime := time.Since(coverStart)

		progress := false
		coveredCount := 0
		for i := 0; i < m; i++ {
			raise := deltaD[i]
			if !raise {
				coveredCount++
			}
			if opt.Demand == DemandAll && mt.MatchCount(i) >= demand[i] {
				raise = true // ablation: everyone explores every iteration
			}
			if raise && demand[i] < l && !exhausted[i] {
				demand[i]++
				progress = true
			}
		}
		if opt.Progress != nil {
			st := mt.Stats()
			total := 0
			for _, d := range demand {
				total += d
			}
			opt.Progress(IterationStats{
				Iteration:   iter,
				Covered:     coveredCount,
				MatchTime:   matchTime,
				CoverTime:   coverTime,
				Edges:       st.EdgesMaterialized,
				Augmenting:  st.Augmentations,
				DemandTotal: total,
			})
		}
		iterPhase.End()
		if covered || !progress {
			break
		}
	}

	if len(selection) < k {
		var err error
		selection, err = SelectGreedyCtx(ctx, inst, selection)
		if err != nil {
			return nil, err
		}
	}
	if !covered {
		var err error
		selection, err = CoverComponentsCtx(ctx, inst, selection)
		if err != nil {
			return nil, err
		}
	}
	return selection, nil
}

// AssignToSelectionCtx implements the tail recursion of Algorithm 1: it
// builds a single optimal (minimum-cost) assignment of all customers to
// the given selected facilities, each customer matched exactly once, and
// packages the solution. It is the optimal-assignment primitive shared
// by WMA's final phase, the Hilbert and BRNN baselines, the exact
// solver, and the Uniform-First strategy. Cancellation is checked per
// augmenting path; on cancellation it returns nil and ctx.Err().
func AssignToSelectionCtx(ctx context.Context, inst *data.Instance, selected []int, opt Options) (*data.Solution, error) {
	if p := obs.From(ctx).Phase("wma/assign"); p != nil {
		defer p.End()
	}
	m := inst.M()
	subset := make([]data.Facility, len(selected))
	for idx, j := range selected {
		subset[idx] = inst.Facilities[j]
	}
	mt := bipartite.New(inst.G, inst.Customers, subset)
	mt.SetExhaustive(opt.Exhaustive)
	for i := 0; i < m; i++ {
		ok, err := mt.FindPairCtx(ctx, i)
		if err != nil {
			return nil, err
		}
		if !ok {
			// Feasibility was verified and CoverComponents balanced every
			// component, so this indicates an internal inconsistency.
			return nil, fmt.Errorf("wma: final assignment failed for customer %d: %w", i, data.ErrInfeasible)
		}
	}
	assignment := make([]int, m)
	var objective int64
	for i := 0; i < m; i++ {
		facs, weights := mt.Matches(i)
		if len(facs) != 1 {
			return nil, fmt.Errorf("wma: customer %d matched to %d facilities in final phase", i, len(facs))
		}
		assignment[i] = selected[facs[0]]
		objective += weights[0]
	}
	return &data.Solution{Selected: selected, Assignment: assignment, Objective: objective}, nil
}
