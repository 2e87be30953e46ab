package mcfs

import (
	"context"
	"errors"
	"fmt"

	"mcfs/internal/baseline"
	"mcfs/internal/core"
	"mcfs/internal/solver"
)

// Algorithm names one of the package's solvers in the public registry,
// the one way to choose a solver: parse a name with ParseAlgorithm,
// enumerate the catalogue with Algorithms, and run any entry through
// Algorithm.Solve. Solve and SolveExact remain as named entry points for
// the paper's algorithm and for the exact solver's full result.
type Algorithm string

// The registered algorithms, in catalogue order.
const (
	// AlgorithmWMA is the Wide Matching Algorithm, the paper's primary
	// contribution; Solve runs it too.
	AlgorithmWMA Algorithm = "wma"
	// AlgorithmUniformFirst is WMA under the Uniform-First strategy for
	// nonuniform capacities (§VII-F): facility locations are first
	// chosen as if all capacities equaled the average, then the
	// assignment is rebuilt under the true capacities.
	AlgorithmUniformFirst Algorithm = "uf"
	// AlgorithmHilbert is the Hilbert space-filling-curve bucketing
	// baseline; it requires node coordinates.
	AlgorithmHilbert Algorithm = "hilbert"
	// AlgorithmBRNN is the iterative bichromatic-reverse-nearest-neighbor
	// (MaxSum) placement baseline.
	AlgorithmBRNN Algorithm = "brnn"
	// AlgorithmNaive is WMA Naïve, the WMA loop with greedy, no-rewiring
	// assignment; seed it with WithSeed.
	AlgorithmNaive Algorithm = "naive"
	// AlgorithmExact is the branch-and-bound exact solver (SolveExact);
	// bound it with WithTimeBudget.
	AlgorithmExact Algorithm = "exact"
	// AlgorithmExhaustive enumerates every k-subset of facilities, for
	// tiny instances only: more than 10^6 subsets is ErrTooLarge. It is
	// the ground-truth yardstick in tests and sanity runs.
	AlgorithmExhaustive Algorithm = "exhaustive"
)

// algorithmEntry couples an Algorithm with its uniform runner. The note
// conveys per-run qualifications that are not part of the Solution —
// e.g. optimality proof or timeout provenance for the exact solver.
type algorithmEntry struct {
	run func(ctx context.Context, inst *Instance, opts ...Option) (*Solution, string, error)
}

// withDeadline adapts an internal solver to the registry's shape: the
// options are built (and validated) once, the WithTimeBudget deadline is
// layered onto the caller's context, and the note is empty. Every entry
// but exact, whose budget is the search's own deadline, is built with
// it. Together with the exact entry this makes the table the only place
// that binds public algorithm names to internal implementations
// (enforced by mcfslint's api-parity rule).
func withDeadline(run func(ctx context.Context, inst *Instance, o options) (*Solution, error)) algorithmEntry {
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
	AlgorithmWMA: withDeadline(func(ctx context.Context, inst *Instance, o options) (*Solution, error) {
		return core.SolveCtx(ctx, inst, core.Options{Progress: o.progress})
	}),
	AlgorithmUniformFirst: withDeadline(func(ctx context.Context, inst *Instance, o options) (*Solution, error) {
		return core.SolveUniformFirstCtx(ctx, inst, core.Options{Progress: o.progress})
	}),
	AlgorithmHilbert: withDeadline(func(ctx context.Context, inst *Instance, o options) (*Solution, error) {
		return baseline.HilbertCtx(ctx, inst)
	}),
	AlgorithmBRNN: withDeadline(func(ctx context.Context, inst *Instance, o options) (*Solution, error) {
		return baseline.BRNNCtx(ctx, inst)
	}),
	AlgorithmNaive: withDeadline(func(ctx context.Context, inst *Instance, o options) (*Solution, error) {
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
	AlgorithmExhaustive: withDeadline(func(ctx context.Context, inst *Instance, o options) (*Solution, error) {
		return solver.ExhaustiveCtx(ctx, inst)
	}),
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

// Solve runs the named solver with uniform context, option, and result
// handling; a nil ctx means context.Background(). The note string
// qualifies the run ("" for every solver but exact; "proven optimal, N
// nodes" or "timeout (best incumbent)" for the exact solver — a
// timed-out exact run reports its incumbent as a success with that
// note, mirroring how MIP solvers are used in practice). When ctx fires
// mid-solve the error is ctx.Err(), and the Solution is non-nil only
// for the solvers that hold incumbents (exact, exhaustive): the best
// found before the cut. An uncancelled run is deterministic.
func (a Algorithm) Solve(ctx context.Context, inst *Instance, opts ...Option) (*Solution, string, error) {
	e, ok := algorithmTable[a]
	if !ok {
		return nil, "", fmt.Errorf("mcfs: unknown algorithm %q (known: %v)", string(a), algorithmOrder)
	}
	return e.run(ctx, inst, opts...)
}
