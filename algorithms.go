package mcfs

import (
	"context"
	"errors"
	"fmt"

	"mcfs/internal/baseline"
	"mcfs/internal/core"
)

// Algorithm names one of the package's solvers in the public registry.
// The registry gives commands and experiment harnesses a single dispatch
// point — parse a name with ParseAlgorithm, enumerate the catalogue with
// Algorithms, and run any entry uniformly through Algorithm.Solve —
// instead of each maintaining its own per-algorithm switch.
type Algorithm string

// The registered algorithms, in catalogue order.
const (
	// AlgorithmWMA is the Wide Matching Algorithm (Solve), the paper's
	// primary contribution.
	AlgorithmWMA Algorithm = "wma"
	// AlgorithmUniformFirst is WMA under the Uniform-First strategy for
	// nonuniform capacities (SolveUniformFirst).
	AlgorithmUniformFirst Algorithm = "uf"
	// AlgorithmHilbert is the Hilbert space-filling-curve bucketing
	// baseline (SolveHilbert); it requires node coordinates.
	AlgorithmHilbert Algorithm = "hilbert"
	// AlgorithmBRNN is the bichromatic-reverse-nearest-neighbor placement
	// baseline (SolveBRNN).
	AlgorithmBRNN Algorithm = "brnn"
	// AlgorithmNaive is WMA Naïve, the greedy no-rewiring ablation
	// (SolveNaive); seed it with WithSeed.
	AlgorithmNaive Algorithm = "naive"
	// AlgorithmExact is the branch-and-bound exact solver (SolveExact);
	// bound it with WithTimeBudget.
	AlgorithmExact Algorithm = "exact"
	// AlgorithmExhaustive enumerates every k-subset (SolveExhaustive);
	// tiny instances only.
	AlgorithmExhaustive Algorithm = "exhaustive"
)

// algorithmEntry couples an Algorithm with its uniform runner. The note
// conveys per-run qualifications that are not part of the Solution —
// e.g. optimality proof or timeout provenance for the exact solver.
type algorithmEntry struct {
	run func(ctx context.Context, inst *Instance, opts ...Option) (*Solution, string, error)
}

// heuristic adapts an internal heuristic solver to the uniform registry
// shape: options are built (and validated) once, the WithTimeBudget
// deadline is layered onto the caller's context, and the note is empty.
// Together with the exact/exhaustive entries below this makes the table
// the only place that binds public algorithm names to internal
// implementations — the root Solve*Ctx wrappers all route through
// Algorithm.Solve (enforced by mcfslint's api-parity rule).
func heuristic(run func(ctx context.Context, inst *Instance, o options) (*Solution, error)) algorithmEntry {
	return algorithmEntry{run: func(ctx context.Context, inst *Instance, opts ...Option) (*Solution, string, error) {
		o, err := buildOptions(opts)
		if err != nil {
			return nil, "", err
		}
		ctx, cancel := o.deadlineCtx(ctx)
		defer cancel()
		sol, err := run(ctx, inst, o)
		return sol, "", err
	}}
}

// algorithmTable is the single dispatch table behind Algorithm.Solve.
var algorithmTable = map[Algorithm]algorithmEntry{
	AlgorithmWMA: heuristic(func(ctx context.Context, inst *Instance, o options) (*Solution, error) {
		return core.SolveCtx(ctx, inst, core.Options{Progress: o.progress})
	}),
	AlgorithmUniformFirst: heuristic(func(ctx context.Context, inst *Instance, o options) (*Solution, error) {
		return core.SolveUniformFirstCtx(ctx, inst, core.Options{Progress: o.progress})
	}),
	AlgorithmHilbert: heuristic(func(ctx context.Context, inst *Instance, o options) (*Solution, error) {
		return baseline.HilbertCtx(ctx, inst)
	}),
	AlgorithmBRNN: heuristic(func(ctx context.Context, inst *Instance, o options) (*Solution, error) {
		return baseline.BRNNCtx(ctx, inst)
	}),
	AlgorithmNaive: heuristic(func(ctx context.Context, inst *Instance, o options) (*Solution, error) {
		return baseline.NaiveCtx(ctx, inst, o.seed)
	}),
	AlgorithmExact: {run: func(ctx context.Context, inst *Instance, opts ...Option) (*Solution, string, error) {
		res, err := SolveExactCtx(ctx, inst, opts...)
		if res == nil {
			return nil, "", err
		}
		if err != nil {
			if errors.Is(err, ErrTimeout) {
				// The budget expiring is the expected way to run the exact
				// solver on nontrivial instances; the incumbent is a valid
				// (just unproven) solution, so surface it as a success with
				// a qualifying note rather than an error.
				return res.Solution, "timeout (best incumbent)", nil
			}
			return res.Solution, "", err
		}
		return res.Solution, fmt.Sprintf("proven optimal, %d nodes", res.Nodes), nil
	}},
	AlgorithmExhaustive: {run: func(ctx context.Context, inst *Instance, opts ...Option) (*Solution, string, error) {
		sol, err := SolveExhaustiveCtx(ctx, inst)
		return sol, "", err
	}},
}

// algorithmOrder fixes the catalogue order returned by Algorithms.
var algorithmOrder = []Algorithm{
	AlgorithmWMA,
	AlgorithmUniformFirst,
	AlgorithmHilbert,
	AlgorithmBRNN,
	AlgorithmNaive,
	AlgorithmExact,
	AlgorithmExhaustive,
}

// Algorithms returns every registered algorithm in a fixed, deterministic
// order (heuristics before exact solvers).
func Algorithms() []Algorithm {
	return append([]Algorithm(nil), algorithmOrder...)
}

// ParseAlgorithm validates a user-supplied algorithm name against the
// registry.
func ParseAlgorithm(name string) (Algorithm, error) {
	a := Algorithm(name)
	if _, ok := algorithmTable[a]; !ok {
		return "", fmt.Errorf("mcfs: unknown algorithm %q (known: %v)", name, algorithmOrder)
	}
	return a, nil
}

// Valid reports whether a names a registered algorithm.
func (a Algorithm) Valid() bool {
	_, ok := algorithmTable[a]
	return ok
}

// String returns the registry name.
func (a Algorithm) String() string { return string(a) }

// Solve dispatches to the named solver with uniform context, option, and
// result handling. The note string qualifies the run ("" for plain
// heuristic solves; "proven optimal, N nodes" or "timeout (best
// incumbent)" for the exact solver — a timed-out exact run reports its
// incumbent as a success with that note, mirroring how MIP solvers are
// used in practice). Cancellation follows the per-solver Ctx contracts:
// the error is ctx.Err() and the Solution is non-nil only for solvers
// that hold incumbents (exact, exhaustive).
func (a Algorithm) Solve(ctx context.Context, inst *Instance, opts ...Option) (*Solution, string, error) {
	e, ok := algorithmTable[a]
	if !ok {
		return nil, "", fmt.Errorf("mcfs: unknown algorithm %q (known: %v)", string(a), algorithmOrder)
	}
	return e.run(ctx, inst, opts...)
}
