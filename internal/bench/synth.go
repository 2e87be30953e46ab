package bench

import (
	"fmt"
	"math/rand"

	"mcfs/internal/data"
	"mcfs/internal/gen"
	"mcfs/internal/graph"
)

// Parameter notes. The paper gives, per figure, the distribution, the
// density α, the capacity c (or range), and the occupancy o = m/(c·k);
// customer counts follow its "customers at 10% of nodes, facilities at
// k = 0.1·m" style statements. Where the prose is ambiguous the values
// below are chosen to reproduce the stated occupancies exactly; see
// EXPERIMENTS.md for the derivations.

// synthSpec describes one synthetic-figure configuration.
type synthSpec struct {
	id       string
	clusters int // 0 = uniform
	alpha    float64
	mFrac    float64 // m = mFrac·n
	kFrac    float64 // k = kFrac·n
	capLo    int     // capHi == 0 → uniform capacity capLo
	capHi    int
	withBRNN bool // include BRNN on the two smallest sizes (Fig. 6a / 7a)
}

var synthSpecs = []synthSpec{
	// Fig. 6: uniform distribution, variable graph size.
	{id: "F6a", alpha: 2.0, mFrac: 0.10, kFrac: 0.01, capLo: 20, withBRNN: true}, // o = 0.5
	{id: "F6b", alpha: 2.0, mFrac: 0.10, kFrac: 0.05, capLo: 4},                  // o = 0.5, denser facilities
	{id: "F6c", alpha: 1.2, mFrac: 0.10, kFrac: 0.05, capLo: 10},                 // o = 0.2, fragmented network
	{id: "F6d", alpha: 1.2, mFrac: 0.10, kFrac: 0.05, capLo: 1, capHi: 10},       // nonuniform capacities
	// Fig. 7: clustered distribution, variable graph size.
	{id: "F7a", clusters: 40, alpha: 1.5, mFrac: 0.20, kFrac: 0.05, capLo: 20, withBRNN: true}, // relaxed capacity
	{id: "F7b", clusters: 40, alpha: 1.5, mFrac: 0.10, kFrac: 0.08, capLo: 5},                  // tighter capacity
	{id: "F7c", clusters: 20, alpha: 1.5, mFrac: 0.10, kFrac: 0.10, capLo: 10},                 // low occupancy (0.1)
	{id: "F7d", clusters: 5, alpha: 1.5, mFrac: 0.10, kFrac: 0.02, capLo: 10},                  // o = 0.5, near-uniform
}

func init() {
	for _, spec := range synthSpecs {
		register(spec.id, func(cfg Config, emit func(Row)) error {
			return runSynthSweep(spec, cfg, emit)
		})
	}
	register("F5", runF5)
	register("F8a", runF8a)
	register("F8b", runF8b)
	register("F8c", runF8c)
	register("F8d", runF8d)
	register("F9a", runF9a)
	register("F9b", runF9b)
}

// sizeSweep is the default n progression for variable-graph-size
// figures, multiplied by cfg.Scale (paper sweeps reach 10^6).
func sizeSweep(cfg Config) []int {
	return scaleInts([]int{1000, 2000, 4000, 8000}, cfg.Scale)
}

// synthInstance generates the network and workload of a spec at size n.
func synthInstance(spec synthSpec, n int, seed int64) (*data.Instance, error) {
	g, err := gen.Synthetic(gen.SyntheticConfig{
		N: n, Clusters: spec.clusters, Alpha: spec.alpha, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 101))
	capFn := gen.UniformCapacity(spec.capLo)
	if spec.capHi > 0 {
		capFn = gen.RandomCapacity(spec.capLo, spec.capHi, rng)
	}
	inst := &data.Instance{G: g}
	disjointWorkload(inst,
		max(1, int(spec.mFrac*float64(n))),
		max(1, int(spec.kFrac*float64(n))),
		capFn, seed+202)
	return inst, nil
}

// runSynthSweep runs one Fig. 6/7 panel: objective and runtime for every
// algorithm across the size sweep, one parallel cell per (size,
// algorithm). The exact solver runs as a serial chain that drops out of
// the sweep after its first timeout (the paper's "Gurobi failed beyond
// ..." behaviour); BRNN runs only on the two smallest sizes when
// enabled.
func runSynthSweep(spec synthSpec, cfg Config, emit func(Row)) error {
	var points []sweepPoint
	for idx, n := range sizeSweep(cfg) {
		algos := []Algo{AlgoWMA, AlgoHilbert, AlgoNaive}
		if spec.withBRNN && !cfg.SkipBRNN && idx < 2 {
			algos = append(algos, AlgoBRNN)
		}
		points = append(points, sweepPoint{
			x: "n", xv: float64(n),
			inst: func() (*data.Instance, error) {
				return synthInstance(spec, n, cfg.Seed)
			},
			algos: algos,
			exact: true,
		})
	}
	return runSweep(spec.id, points, true, cfg, emit)
}

// runF5 reports the distribution examples of Fig. 5 as structural
// statistics (nodes are drawn, not plotted, in this reproduction), one
// cell per distribution.
func runF5(cfg Config, emit func(Row)) error {
	n := max(8, int(10000*cfg.Scale))
	p := newPool(cfg)
	for _, clusters := range []int{0, 40, 20, 5} {
		p.cell(func(emit func(Row)) error {
			g, err := gen.Synthetic(gen.SyntheticConfig{N: n, Clusters: clusters, Alpha: 1.5, Seed: cfg.Seed})
			if err != nil {
				return err
			}
			_, count := g.Components()
			label := "uniform"
			if clusters > 0 {
				label = fmt.Sprintf("%d clusters", clusters)
			}
			emit(Row{
				Exp: "F5", X: label, XVal: float64(clusters), Objective: -1,
				Note: fmt.Sprintf("nodes=%d edges=%d avgdeg=%.2f components=%d",
					g.N(), g.M(), g.AvgDegree(), count),
			})
			return nil
		})
	}
	return p.drain(emit)
}

// f8Size is the node count of the fixed clustered-20 network used by the
// Fig. 8 sweeps.
func f8Size(cfg Config) int { return max(64, int(10000*cfg.Scale)) }

// lazyF8Graph memoizes that network so all sweep points share one
// generation.
func lazyF8Graph(cfg Config) func() (*graph.Graph, error) {
	return lazy(func() (*graph.Graph, error) {
		return gen.Synthetic(gen.SyntheticConfig{N: f8Size(cfg), Clusters: 20, Alpha: 1.5, Seed: cfg.Seed})
	})
}

// runF8a sweeps the candidate-facility fraction ℓ/|V| from 40% to 100%
// (dense customers, high capacity).
func runF8a(cfg Config, emit func(Row)) error {
	n := f8Size(cfg)
	g := lazyF8Graph(cfg)
	m := n / 5
	k := max(1, n/50)
	var points []sweepPoint
	for _, pct := range []int{40, 60, 80, 100} {
		points = append(points, sweepPoint{
			x: "l%", xv: float64(pct),
			inst: func() (*data.Instance, error) {
				gg, err := g()
				if err != nil {
					return nil, err
				}
				rng := rand.New(rand.NewSource(cfg.Seed + int64(pct)))
				inst := &data.Instance{
					G:          gg,
					Facilities: gen.SampleFacilities(gg, n*pct/100, rng, gen.UniformCapacity(20)),
					K:          k,
				}
				feasibleCustomers(inst, m, cfg.Seed+303)
				return inst, nil
			},
			algos: []Algo{AlgoWMA, AlgoHilbert, AlgoNaive},
			exact: true,
		})
	}
	return runSweep("F8a", points, true, cfg, emit)
}

// runF8b sweeps the number of customers m (fixed k, c = 10, F_p = V).
func runF8b(cfg Config, emit func(Row)) error {
	n := f8Size(cfg)
	g := lazyF8Graph(cfg)
	k := max(1, n/20)
	var points []sweepPoint
	// The default sweep stops at 20% of n: occupancy beyond ~0.5 drives
	// WMA runtimes toward the paper's hours-long regime (grow -scale to
	// push further).
	for _, frac := range []int{2, 5, 10, 20} { // m = frac% of n
		m := max(1, n*frac/100)
		points = append(points, sweepPoint{
			x: "m", xv: float64(m),
			inst: func() (*data.Instance, error) {
				gg, err := g()
				if err != nil {
					return nil, err
				}
				inst := &data.Instance{G: gg}
				disjointWorkload(inst, m, k, gen.UniformCapacity(10), cfg.Seed+404+int64(frac))
				return inst, nil
			},
			algos: []Algo{AlgoWMA, AlgoHilbert, AlgoNaive},
			exact: true,
		})
	}
	return runSweep("F8b", points, true, cfg, emit)
}

// runF8c scales customers past the node count (several customers per
// node) at occupancy o = 0.1 (c = 20, k = m/2). Exact is skipped: the
// paper reports Gurobi fails for large m.
func runF8c(cfg Config, emit func(Row)) error {
	n := f8Size(cfg)
	g := lazyF8Graph(cfg)
	var points []sweepPoint
	for _, frac := range []int{20, 50, 100, 200} { // m as % of n
		m := max(1, n*frac/100)
		k := m / 2
		if k > n/2 {
			k = n / 2 // keep the selection nontrivial (k = ℓ would be free)
		}
		if k < 1 {
			k = 1
		}
		points = append(points, sweepPoint{
			x: "m", xv: float64(m),
			inst: func() (*data.Instance, error) {
				gg, err := g()
				if err != nil {
					return nil, err
				}
				inst := &data.Instance{
					G:          gg,
					Facilities: gen.AllNodesFacilities(gg, gen.UniformCapacity(20)),
					K:          k,
				}
				feasibleCustomers(inst, m, cfg.Seed+505+int64(frac))
				return inst, nil
			},
			algos: []Algo{AlgoWMA, AlgoHilbert, AlgoNaive},
		})
	}
	return runSweep("F8c", points, true, cfg, emit)
}

// runF8d sweeps the budget k (fixed m = 0.1n, c = 10, F_p = V).
func runF8d(cfg Config, emit func(Row)) error {
	n := f8Size(cfg)
	g := lazyF8Graph(cfg)
	m := max(1, n/10)
	var points []sweepPoint
	for _, kFrac := range []int{2, 5, 10, 20} { // k as % of n
		k := max(1, n*kFrac/100)
		points = append(points, sweepPoint{
			x: "k", xv: float64(k),
			inst: func() (*data.Instance, error) {
				gg, err := g()
				if err != nil {
					return nil, err
				}
				inst := &data.Instance{G: gg}
				disjointWorkload(inst, m, k, gen.UniformCapacity(10), cfg.Seed+606)
				return inst, nil
			},
			algos: []Algo{AlgoWMA, AlgoHilbert, AlgoNaive},
			exact: true,
		})
	}
	return runSweep("F8d", points, true, cfg, emit)
}

// runF9a sweeps the density parameter α on 5-cluster data (c = 10); the
// x axis reports the measured average degree, as in the paper — derived
// inside the cells from the generated graph (xvFn), so generation stays
// parallel.
func runF9a(cfg Config, emit func(Row)) error {
	n := max(64, int(5000*cfg.Scale))
	var points []sweepPoint
	for _, alpha := range []float64{1.0, 1.2, 1.5, 2.0, 2.5} {
		points = append(points, sweepPoint{
			x:    "avgdeg",
			xvFn: func(inst *data.Instance) float64 { return inst.G.AvgDegree() },
			inst: func() (*data.Instance, error) {
				g, err := gen.Synthetic(gen.SyntheticConfig{N: n, Clusters: 5, Alpha: alpha, Seed: cfg.Seed})
				if err != nil {
					return nil, err
				}
				inst := &data.Instance{G: g}
				disjointWorkload(inst, max(1, n/10), max(1, n/20), gen.UniformCapacity(10), cfg.Seed+707)
				return inst, nil
			},
			algos: []Algo{AlgoWMA, AlgoHilbert, AlgoNaive},
			exact: true,
		})
	}
	return runSweep("F9a", points, true, cfg, emit)
}

// runF9b sweeps the uniform capacity c on 5-cluster data (α = 1.5).
func runF9b(cfg Config, emit func(Row)) error {
	n := max(64, int(5000*cfg.Scale))
	g := lazy(func() (*graph.Graph, error) {
		return gen.Synthetic(gen.SyntheticConfig{N: n, Clusters: 5, Alpha: 1.5, Seed: cfg.Seed})
	})
	m := max(1, n/10)
	k := max(1, n/20)
	var points []sweepPoint
	for _, c := range []int{3, 4, 6, 10, 20, 40} {
		points = append(points, sweepPoint{
			x: "c", xv: float64(c),
			inst: func() (*data.Instance, error) {
				gg, err := g()
				if err != nil {
					return nil, err
				}
				inst := &data.Instance{G: gg}
				disjointWorkload(inst, m, k, gen.UniformCapacity(c), cfg.Seed+808)
				return inst, nil
			},
			algos: []Algo{AlgoWMA, AlgoHilbert, AlgoNaive},
			exact: true,
		})
	}
	return runSweep("F9b", points, true, cfg, emit)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
