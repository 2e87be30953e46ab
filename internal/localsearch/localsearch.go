// Package localsearch post-optimizes an MCFS solution with single-swap
// moves, the classic local-search neighborhood for capacitated k-median
// (cf. the paper's related work, Korupolu et al.): exchange one selected
// facility for one unselected candidate and rebuild the optimal
// assignment. The paper leaves local search as impracticable for hard
// nonuniform capacities at scale; applied as a *polish* on WMA's output
// with a bounded move budget and a distance-pruned candidate pool, it
// trades extra assignment solves for objective improvements — quantified
// by the AblSwap benchmark.
package localsearch

import (
	"context"
	"errors"
	"sort"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// Options bounds the search. The zero value is the public Improve's
// budget; the AblSwap benchmark sets both fields.
type Options struct {
	// MaxMoves caps accepted swaps; 0 means 2·k.
	MaxMoves int
	// CandidatesPerFacility bounds how many nearby unselected candidates
	// are tried as replacements for each selected facility; 0 means 5.
	CandidatesPerFacility int
}

// Stats reports the work performed.
type Stats struct {
	Evaluated int // candidate swaps evaluated (assignment solves)
	Accepted  int // improving swaps applied
}

// ImproveCtx applies first-improvement single swaps to sol until no
// improving move remains in the pruned neighborhood or the move budget
// is exhausted. It returns the improved solution (possibly sol itself
// when no move helps) and search statistics.
//
// Cancellation is checked in every candidate search and before every
// candidate swap evaluation. Unlike the construction heuristics, local
// search always holds a verified feasible incumbent (the input solution
// or the best accepted swap so far), so on cancellation it returns that
// incumbent together with ctx.Err() — callers can keep the polish
// achieved up to the cut. Every uncancelled run is byte-identical.
func ImproveCtx(ctx context.Context, inst *data.Instance, sol *data.Solution, opt Options) (*data.Solution, Stats, error) {
	var st Stats
	if err := inst.Validate(); err != nil {
		return nil, st, err
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		return nil, st, err
	}
	if opt.MaxMoves == 0 {
		opt.MaxMoves = 2 * inst.K
	}
	if opt.CandidatesPerFacility == 0 {
		opt.CandidatesPerFacility = 5
	}

	best := sol
	selected := make(map[int]bool, len(best.Selected))
	for _, j := range best.Selected {
		selected[j] = true
	}

	improved := true
	for improved && st.Accepted < opt.MaxMoves {
		improved = false
		// Deterministic order: heaviest-loaded facility first (its
		// neighborhood is where relocation gains concentrate).
		order := byLoad(best)
		for _, out := range order {
			cands, err := nearbyCandidates(ctx, inst, out, selected, opt.CandidatesPerFacility)
			if err != nil {
				return best, st, err
			}
			for _, in := range cands {
				if err := ctx.Err(); err != nil {
					return best, st, err
				}
				trial := swap(best.Selected, out, in)
				st.Evaluated++
				cand, err := core.AssignToSelectionCtx(ctx, inst, trial)
				if err != nil {
					if errors.Is(err, data.ErrInfeasible) {
						continue // swap breaks capacity coverage; skip
					}
					if ctx.Err() != nil {
						return best, st, err
					}
					return nil, st, err
				}
				if cand.Objective < best.Objective {
					best = cand
					delete(selected, out)
					selected[in] = true
					st.Accepted++
					improved = true
					break
				}
			}
			if improved {
				break // restart the pass from the new solution
			}
		}
	}
	return best, st, nil
}

// byLoad orders the selected facilities by descending assigned load.
func byLoad(sol *data.Solution) []int {
	load := map[int]int{}
	for _, j := range sol.Assignment {
		load[j]++
	}
	order := append([]int(nil), sol.Selected...)
	sort.Slice(order, func(a, b int) bool {
		if load[order[a]] != load[order[b]] {
			return load[order[a]] > load[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// nearbyCandidates returns up to limit unselected candidates nearest (by
// network distance) to the facility being swapped out. A cancelled
// search reports exhaustion, so its error comes back with the partial
// list, which must not pass for the whole neighborhood.
func nearbyCandidates(ctx context.Context, inst *data.Instance, out int, selected map[int]bool, limit int) ([]int, error) {
	mask := make([]bool, inst.G.N())
	nodeToFac := make(map[int32]int, inst.L())
	for j, f := range inst.Facilities {
		if !selected[j] {
			mask[f.Node] = true
			nodeToFac[f.Node] = j
		}
	}
	var cands []int
	s := graph.NewNNSearcherCtx(ctx, inst.G, inst.Facilities[out].Node, mask)
	for len(cands) < limit {
		node, _, ok := s.Next()
		if !ok {
			break
		}
		cands = append(cands, nodeToFac[node])
	}
	return cands, s.Err()
}

func swap(selection []int, out, in int) []int {
	trial := make([]int, 0, len(selection))
	for _, j := range selection {
		if j != out {
			trial = append(trial, j)
		}
	}
	return append(trial, in)
}
