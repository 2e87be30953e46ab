package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mcfs"
	"mcfs/internal/data"
	"mcfs/internal/gen"
	"mcfs/internal/solver"
)

func init() {
	register("Q", runQuality)
}

// qualityBatch is the outcome of one quality instance: per-algorithm
// objective ratios to the enumerated optimum and per-algorithm solve
// times. A nil entry in the slot array means the instance was skipped
// (infeasible or too large to enumerate).
type qualityBatch struct {
	ratio map[Algo]float64
	times map[Algo]time.Duration
	exact time.Duration
}

// runQuality backs the paper's "competitive vis-à-vis the optimal
// solution" claim on instances small enough for the exact solver to
// finish: a batch of seeded clustered instances is solved by every
// algorithm and by exhaustive enumeration, and the mean and maximum
// objective ratio to the optimum is reported per algorithm. Batches are
// independent cells; each writes its own result slot, and aggregation
// happens after all cells have drained, so the summary is identical at
// any worker count.
func runQuality(cfg Config, emit func(Row)) error {
	const batch = 8
	algos := []Algo{AlgoWMA, AlgoUF, AlgoHilbert, AlgoNaive, AlgoBRNN}
	slots := make([]*qualityBatch, batch)

	p := newPool(cfg)
	for b := 0; b < batch; b++ {
		p.cell(func(emit func(Row)) error {
			seed := cfg.Seed + int64(b)*977
			n := 200 + int(100*cfg.Scale)*b/2
			g, err := gen.Synthetic(gen.SyntheticConfig{N: n, Clusters: 8, Alpha: 1.8, Seed: seed})
			if err != nil {
				return err
			}
			pool := gen.LargestComponent(g)
			rng := rand.New(rand.NewSource(seed + 1))
			// Clustered geometry, restricted candidate set, tight-ish
			// occupancy (≈0.8): the regime the paper's evaluation targets,
			// kept small enough for exhaustive enumeration (C(12,5) subsets).
			inst := &data.Instance{
				G:          g,
				Customers:  gen.SampleCustomersFrom(pool, 20, rng),
				Facilities: gen.SampleFacilitiesFrom(pool, 12, rng, gen.UniformCapacity(5)),
				K:          5,
			}
			if ok, _ := inst.Feasible(); !ok {
				inst.K = 6
				if ok, _ := inst.Feasible(); !ok {
					return nil // skipped batch; slot stays nil
				}
			}
			start := time.Now()
			opt, err := solver.ExhaustiveCtx(context.Background(), inst)
			if err != nil {
				if errors.Is(err, data.ErrInfeasible) || errors.Is(err, solver.ErrTooLarge) {
					return nil
				}
				return err
			}
			res := &qualityBatch{
				ratio: make(map[Algo]float64, len(algos)),
				times: make(map[Algo]time.Duration, len(algos)),
				exact: time.Since(start),
			}

			for _, a := range algos {
				start := time.Now()
				sol, _, err := publicAlgo[a].Solve(context.Background(), inst, mcfs.WithSeed(seed))
				res.times[a] = time.Since(start)
				if err != nil {
					return fmt.Errorf("quality batch %d, %s: %w", b, a, err)
				}
				if _, err := inst.CheckSolution(sol); err != nil {
					return fmt.Errorf("quality batch %d, %s: %w", b, a, err)
				}
				r := 1.0
				if opt.Objective > 0 {
					r = float64(sol.Objective) / float64(opt.Objective)
				} else if sol.Objective > 0 {
					r = 2
				}
				res.ratio[a] = r
			}
			slots[b] = res // each cell owns exactly its own index
			return nil
		})
	}
	if err := p.drain(emit); err != nil {
		return err
	}

	type agg struct {
		sum, worst float64
		count      int
		time       time.Duration
	}
	ratios := map[Algo]*agg{}
	for _, a := range algos {
		ratios[a] = &agg{}
	}
	var exactTime time.Duration
	solved := 0
	for _, res := range slots {
		if res == nil {
			continue
		}
		solved++
		exactTime += res.exact
		for _, a := range algos {
			ag := ratios[a]
			ag.sum += res.ratio[a]
			ag.count++
			ag.time += res.times[a]
			if res.ratio[a] > ag.worst {
				ag.worst = res.ratio[a]
			}
		}
	}
	for _, a := range algos {
		ag := ratios[a]
		if ag.count == 0 {
			continue
		}
		// Wall-clock figures live only in Runtime (never in the note), so
		// -notimes keeps the row stream byte-comparable across runs.
		emit(Row{
			Exp: "Q", X: string(a), Algo: a, Objective: -1, Runtime: ag.time,
			Note: fmt.Sprintf("mean ratio to optimal %.3f, worst %.3f over %d instances",
				ag.sum/float64(ag.count), ag.worst, ag.count),
		})
	}
	if solved > 0 {
		emit(Row{
			Exp: "Q", X: "exact-total", Algo: AlgoExact, Objective: -1, Runtime: exactTime,
			Note: fmt.Sprintf("exhaustive enumeration over %d instances", solved),
		})
	}
	return nil
}
