package core

import (
	"context"
	"errors"

	"mcfs/internal/data"
)

// SolveUniformFirstCtx implements the paper's Uniform First (UF) strategy
// for nonuniform instances (§VII-F): first select facilities as if every
// capacity equaled the (ceiling of the) average capacity — which may
// expose better locations unbiased by capacity skew — then rebuild the
// assignment against the true nonuniform capacities in a single optimal
// bipartite matching step, repairing the selection per component if the
// true capacities fall short. Falls back to the Direct strategy when the
// uniformized instance is infeasible.
//
// The context is threaded through both the uniformized and the
// true-capacity solve. On cancellation it returns nil and ctx.Err() —
// never the Direct-strategy fallback, which is reserved for genuine
// infeasibility of the uniformized instance.
func SolveUniformFirstCtx(ctx context.Context, inst *data.Instance, opt Options) (*data.Solution, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if ok, _ := inst.Feasible(); !ok {
		return nil, data.ErrInfeasible
	}
	if inst.L() == 0 || inst.M() == 0 {
		return SolveCtx(ctx, inst, opt)
	}
	avg := (inst.TotalCapacity() + inst.L() - 1) / inst.L()
	uniform := &data.Instance{
		G:          inst.G,
		Customers:  inst.Customers,
		Facilities: make([]data.Facility, inst.L()),
		K:          inst.K,
	}
	for j, f := range inst.Facilities {
		uniform.Facilities[j] = data.Facility{Node: f.Node, Capacity: avg}
	}
	if ok, _ := uniform.Feasible(); !ok {
		return SolveCtx(ctx, inst, opt)
	}
	uniSol, err := SolveCtx(ctx, uniform, opt)
	if err != nil {
		if errors.Is(err, data.ErrInfeasible) {
			return SolveCtx(ctx, inst, opt)
		}
		return nil, err
	}
	// Re-validate the selection against the true capacities, repairing
	// component shortfalls before the final matching. Cancellation must
	// not be mistaken for a repair failure: a cancelled repair aborts the
	// run instead of falling back to a full Direct solve.
	selection, err := CoverComponentsCtx(ctx, inst, append([]int(nil), uniSol.Selected...))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return SolveCtx(ctx, inst, opt)
	}
	sol, err := AssignToSelectionCtx(ctx, inst, selection, opt)
	if err != nil {
		if errors.Is(err, data.ErrInfeasible) {
			return SolveCtx(ctx, inst, opt)
		}
		return nil, err
	}
	return sol, nil
}
