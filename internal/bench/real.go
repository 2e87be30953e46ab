package bench

import (
	"context"
	"fmt"
	"time"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/gen"
	"mcfs/internal/realsim"
)

func init() {
	register("F12a", runF12a)
	register("F12b", runF12b)
	register("F13a", runF13a)
	register("F13b", runF13b)
}

// vegasCoworking builds the Las Vegas coworking scenario at the current
// scale: venue count follows the paper's 4089 proportionally, customers
// keep the paper's ≈1:4 customer:venue ratio.
func vegasCoworking(cfg Config) (*realsim.CoworkingScenario, *data.Instance, int, error) {
	p, err := gen.CityPreset("lasvegas", cityScale(cfg), cfg.Seed)
	if err != nil {
		return nil, nil, 0, err
	}
	g, err := gen.City(p)
	if err != nil {
		return nil, nil, 0, err
	}
	venues := int(4089 * cityScale(cfg))
	if venues < 16 {
		venues = 16
	}
	if venues > g.N()/2 {
		venues = g.N() / 2
	}
	m := venues / 4
	sc, err := realsim.Coworking(g, realsim.CoworkingConfig{
		Venues: venues, Customers: m, MeanHours: 9, Omega: 0.5, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return sc, sc.Instance(g, 0), m, nil
}

// kSweep yields four budgets between barely-feasible and roomy for a
// scenario with m customers and mean capacity meanCap.
func kSweep(m, meanCap, maxK int) []int {
	min := m/meanCap + 1
	var ks []int
	for _, mult := range []float64{1.5, 2, 3, 4} {
		k := int(float64(min) * mult)
		if k < 1 {
			k = 1
		}
		if k > maxK {
			k = maxK
		}
		if len(ks) == 0 || k != ks[len(ks)-1] {
			ks = append(ks, k)
		}
	}
	return ks
}

// runCoworkingSweep executes a Fig. 12a/13a-style k sweep on a coworking
// or bikes instance: WMA Direct, WMA Uniform-First, Hilbert, Naive,
// BRNN, and the exact solver. Each k point is a shallow copy of inst
// with its own K, and runSweep hands every (k, algorithm) cell its own
// copy of that, so the cells can run in parallel.
func runCoworkingSweep(exp string, inst *data.Instance, ks []int, cfg Config, emit func(Row)) error {
	var points []sweepPoint
	for idx, k := range ks {
		withK := *inst
		withK.K = k
		algos := []Algo{AlgoWMA, AlgoUF, AlgoHilbert, AlgoNaive}
		if !cfg.SkipBRNN && idx == 0 {
			algos = append(algos, AlgoBRNN)
		}
		points = append(points, sweepPoint{
			x: "k", xv: float64(k),
			inst:  func() (*data.Instance, error) { return &withK, nil },
			algos: algos,
			exact: true,
		})
	}
	return runSweep(exp, points, true, cfg, emit)
}

// runF12a is the Las Vegas coworking comparison (objective vs k).
func runF12a(cfg Config, emit func(Row)) error {
	_, inst, m, err := vegasCoworking(cfg)
	if err != nil {
		return err
	}
	return runCoworkingSweep("F12a", inst, kSweep(m, 9, inst.L()), cfg, emit)
}

// runF12b reports WMA's per-iteration statistics on the Las Vegas
// scenario (covered customers, matching time, set-cover time) — the
// paper uses k = 600 of 4089 venues; we keep the same ≈15% ratio.
// Inherently serial: the rows are the progress trace of a single solve.
func runF12b(cfg Config, emit func(Row)) error {
	_, inst, _, err := vegasCoworking(cfg)
	if err != nil {
		return err
	}
	inst.K = max(1, inst.L()*15/100)
	if ok, _ := inst.Feasible(); !ok {
		inst.K = inst.L() / 2
	}
	start := time.Now()
	_, err = core.SolveCtx(context.Background(), inst, core.Options{Progress: func(s core.IterationStats) {
		// Wall-clock lives only in Runtime (one row per phase), never in
		// the note, so -notimes keeps the row stream byte-comparable.
		note := fmt.Sprintf("covered=%d edges=%d demand=%d", s.Covered, s.Edges, s.DemandTotal)
		emit(Row{
			Exp: "F12b", X: "match", XVal: float64(s.Iteration), Algo: AlgoWMA,
			Objective: int64(s.Covered), Runtime: s.MatchTime, Note: note,
		})
		emit(Row{
			Exp: "F12b", X: "cover", XVal: float64(s.Iteration), Algo: AlgoWMA,
			Objective: int64(s.Covered), Runtime: s.CoverTime, Note: note,
		})
	}})
	if err != nil {
		return err
	}
	emit(Row{Exp: "F12b", X: "total", XVal: 0, Algo: AlgoWMA, Objective: -1, Runtime: time.Since(start)})
	return nil
}

// runF13a is the Copenhagen coworking comparison: 164 venues and 200
// customers at paper scale (kept at their absolute sizes when the scaled
// city is large enough).
func runF13a(cfg Config, emit func(Row)) error {
	p, err := gen.CityPreset("copenhagen", cityScale(cfg), cfg.Seed)
	if err != nil {
		return err
	}
	g, err := gen.City(p)
	if err != nil {
		return err
	}
	venues := 164
	if venues > g.N()/4 {
		venues = g.N() / 4
	}
	m := venues * 200 / 164
	sc, err := realsim.Coworking(g, realsim.CoworkingConfig{
		Venues: venues, Customers: m, MeanHours: 9, Omega: 0.5, Seed: cfg.Seed,
	})
	if err != nil {
		return err
	}
	// Copenhagen customers follow district populations in the paper;
	// replace the Voronoi-derived ones accordingly.
	cust, err := realsim.DistrictCustomers(g, realsim.DistrictConfig{
		Districts: 4, Customers: m, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return err
	}
	sc.Customers = cust
	inst := sc.Instance(g, 0)
	return runCoworkingSweep("F13a", inst, kSweep(m, 9, inst.L()), cfg, emit)
}

// runF13b is the Copenhagen dockless-bike experiment: 6000 stations and
// 1000 bikes at paper scale, scaled proportionally here.
func runF13b(cfg Config, emit func(Row)) error {
	p, err := gen.CityPreset("copenhagen", cityScale(cfg), cfg.Seed)
	if err != nil {
		return err
	}
	g, err := gen.City(p)
	if err != nil {
		return err
	}
	stations := int(6000 * cityScale(cfg))
	if stations < 24 {
		stations = 24
	}
	if stations > g.N()/2 {
		stations = g.N() / 2
	}
	bikes := stations / 6
	sc, err := realsim.Bikes(g, realsim.BikesConfig{
		Stations: stations, Bikes: bikes, MinCap: 3, MaxCap: 12, Attractors: 4, Seed: cfg.Seed,
	})
	if err != nil {
		return err
	}
	inst := sc.Instance(g, 0)
	return runCoworkingSweep("F13b", inst, kSweep(bikes, 7, inst.L()), cfg, emit)
}
