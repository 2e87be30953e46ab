package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mcfs/internal/bipartite"
	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/gen"
	"mcfs/internal/localsearch"
)

func init() {
	register("AblThreshold", runAblThreshold)
	register("AblDemand", runAblDemand)
	register("AblTieBreak", runAblTieBreak)
	register("AblSwap", runAblSwap)
}

// ablationInstance is a clustered, moderately tight workload where the
// design choices under study have room to matter.
func ablationInstance(cfg Config) (*data.Instance, error) {
	n := max(64, int(5000*cfg.Scale))
	g, err := gen.Synthetic(gen.SyntheticConfig{N: n, Clusters: 20, Alpha: 1.5, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	inst := &data.Instance{
		G:          g,
		Facilities: gen.AllNodesFacilities(g, gen.UniformCapacity(5)),
		K:          max(1, n/25),
	}
	feasibleCustomers(inst, max(1, n/10), cfg.Seed+17)
	return inst, nil
}

// runAblThreshold contrasts the early-stopping inner search (enabled by
// the Theorem-1 threshold bookkeeping) with exhaustive residual scans:
// identical matchings, different work. It reports matcher counters for
// a full per-customer matching pass. Facilities are a sparse sample
// (F_p = V would put every customer at distance zero from a candidate
// and trivialize the search). The three variants — early-stop,
// exhaustive, dense-Gb — are independent cells, each with its own copy
// of one generated instance and its own matcher.
func runAblThreshold(cfg Config, emit func(Row)) error {
	build := perCell(func() (*data.Instance, error) {
		inst, err := ablationInstance(cfg)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 23))
		inst.Facilities = gen.SampleFacilities(inst.G, inst.G.N()/10, rng, gen.UniformCapacity(3))
		feasibleCustomers(inst, inst.M(), cfg.Seed+29)
		return inst, nil
	})
	p := newPool(cfg)
	for _, exhaustive := range []bool{false, true} {
		p.cell(func(emit func(Row)) error {
			inst, err := build()
			if err != nil {
				return err
			}
			mt := bipartite.New(inst.G, inst.Customers, inst.Facilities)
			mt.SetExhaustive(exhaustive)
			start := time.Now()
			for i := 0; i < inst.M(); i++ {
				ok, err := mt.FindPairCtx(context.Background(), i)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("bench: AblThreshold: no augmenting path for customer %d", i)
				}
			}
			elapsed := time.Since(start)
			st := mt.Stats()
			label := "early-stop"
			if exhaustive {
				label = "exhaustive"
			}
			emit(Row{
				Exp: "AblThreshold", X: label, Algo: AlgoWMA,
				Objective: mt.TotalMatchedCost(), Runtime: elapsed,
				Note: fmt.Sprintf("edges=%d dijkstras=%d scanned=%d",
					st.EdgesMaterialized, st.DijkstraRuns, st.NodesScanned),
			})
			return nil
		})
	}
	// Dense contrast: without Theorem-1 pruning, G_b needs all m·ℓ edge
	// weights up front — one full-network Dijkstra per customer. Measure
	// that construction cost alone (the matching would come on top).
	p.cell(func(emit func(Row)) error {
		inst, err := build()
		if err != nil {
			return err
		}
		start := time.Now()
		for _, s := range inst.Customers {
			if _, err := inst.G.DijkstraCtx(context.Background(), s); err != nil {
				return err
			}
		}
		emit(Row{
			Exp: "AblThreshold", X: "dense-Gb", Algo: AlgoWMA, Objective: -1,
			Runtime: time.Since(start),
			Note:    fmt.Sprintf("edges=%d (complete bipartite graph, construction only)", inst.M()*inst.L()),
		})
		return nil
	})
	return p.drain(emit)
}

// runAblDemand compares the paper's selective demand increase (§IV-F)
// against raising every demand each iteration — one cell per policy,
// each on its own copy of one generated instance.
func runAblDemand(cfg Config, emit func(Row)) error {
	build := perCell(func() (*data.Instance, error) { return ablationInstance(cfg) })
	p := newPool(cfg)
	for _, policy := range []core.DemandPolicy{core.DemandSelective, core.DemandAll} {
		p.cell(func(emit func(Row)) error {
			inst, err := build()
			if err != nil {
				return err
			}
			iterations := 0
			edges := 0
			start := time.Now()
			sol, err := core.SolveCtx(context.Background(), inst, core.Options{
				Demand: policy,
				Progress: func(s core.IterationStats) {
					iterations = s.Iteration
					edges = s.Edges
				},
			})
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			label := "selective"
			if policy == core.DemandAll {
				label = "raise-all"
			}
			emit(Row{
				Exp: "AblDemand", X: label, Algo: AlgoWMA,
				Objective: sol.Objective, Runtime: elapsed,
				Note: fmt.Sprintf("iterations=%d edges=%d", iterations, edges),
			})
			return nil
		})
	}
	return p.drain(emit)
}

// runAblTieBreak compares LRU diversification in the set-cover heuristic
// against index-order tie-breaking — one cell per tie-break policy.
func runAblTieBreak(cfg Config, emit func(Row)) error {
	build := perCell(func() (*data.Instance, error) { return ablationInstance(cfg) })
	p := newPool(cfg)
	for _, tie := range []core.TieBreak{core.TieLRU, core.TieArbitrary} {
		p.cell(func(emit func(Row)) error {
			inst, err := build()
			if err != nil {
				return err
			}
			start := time.Now()
			sol, err := core.SolveCtx(context.Background(), inst, core.Options{TieBreak: tie})
			if err != nil {
				return err
			}
			label := "lru"
			if tie == core.TieArbitrary {
				label = "arbitrary"
			}
			emit(Row{
				Exp: "AblTieBreak", X: label, Algo: AlgoWMA,
				Objective: sol.Objective, Runtime: time.Since(start),
			})
			return nil
		})
	}
	return p.drain(emit)
}

// runAblSwap quantifies the single-swap local-search polish on top of
// WMA: objective delta and cost in extra assignment solves. The polish
// consumes the WMA solution, so both measurements form a single cell.
func runAblSwap(cfg Config, emit func(Row)) error {
	p := newPool(cfg)
	p.cell(func(emit func(Row)) error {
		inst, err := ablationInstance(cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		sol, err := core.SolveCtx(context.Background(), inst, core.Options{})
		if err != nil {
			return err
		}
		emit(Row{Exp: "AblSwap", X: "wma", Algo: AlgoWMA, Objective: sol.Objective, Runtime: time.Since(start)})
		start = time.Now()
		// Bounded polish: each evaluated swap costs a full assignment solve,
		// so the ablation caps the budget (the default 2·k budget is meant
		// for small k).
		polished, st, err := localsearch.ImproveCtx(context.Background(), inst, sol, localsearch.Options{MaxMoves: 8, CandidatesPerFacility: 3})
		if err != nil {
			return err
		}
		emit(Row{
			Exp: "AblSwap", X: "wma+swap", Algo: AlgoWMA,
			Objective: polished.Objective, Runtime: time.Since(start),
			Note: fmt.Sprintf("evaluated=%d accepted=%d", st.Evaluated, st.Accepted),
		})
		return nil
	})
	return p.drain(emit)
}
