package bench

import (
	"fmt"
	"math/rand"

	"mcfs/internal/data"
	"mcfs/internal/gen"
)

func init() {
	register("T3", runT3)
	register("T4", runT4)
	register("F10", runF10)
}

// cityScale converts the global scale into a city-size fraction: the
// default run builds each city at 5% of its Table III node count; scale
// 20 reproduces the paper's full sizes.
func cityScale(cfg Config) float64 { return 0.05 * cfg.Scale }

// runT3 generates all four city networks — one parallel cell each — and
// reports their Table III statistics next to the paper's originals.
func runT3(cfg Config, emit func(Row)) error {
	paper := map[string]string{
		"aalborg":    "paper: 50961 nodes, 55748 edges, deg 2.2/7, len 30.2",
		"riga":       "paper: 287927 nodes, 322109 edges, deg 2.2/29, len 28.7",
		"copenhagen": "paper: 282826 nodes, 322349 edges, deg 2.2/10, len 32.6",
		"lasvegas":   "paper: 425759 nodes, 508522 edges, deg 2.4/21, len 50.4",
	}
	p := newPool(cfg)
	for i, name := range gen.CityNames {
		p.cell(func(emit func(Row)) error {
			pr, err := gen.CityPreset(name, cityScale(cfg), cfg.Seed)
			if err != nil {
				return err
			}
			g, err := gen.City(pr)
			if err != nil {
				return err
			}
			st := gen.Stats(g)
			emit(Row{
				Exp: "T3", X: name, XVal: float64(i), Objective: -1,
				Note: fmt.Sprintf("nodes=%d edges=%d avgdeg=%.2f maxdeg=%d avglen=%.1f | %s",
					st.Nodes, st.Edges, st.AvgDegree, st.MaxDegree, st.AvgEdgeLength, paper[name]),
			})
			return nil
		})
	}
	return p.drain(emit)
}

// cityInstance builds a Table IV-style workload on a city: m customers,
// every largest-component node a candidate facility with capacity c.
func cityInstance(name string, cfg Config, m, k, c int) (*data.Instance, error) {
	p, err := gen.CityPreset(name, cityScale(cfg), cfg.Seed)
	if err != nil {
		return nil, err
	}
	g, err := gen.City(p)
	if err != nil {
		return nil, err
	}
	pool := gen.LargestComponent(g)
	if m > len(pool) {
		m = len(pool)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	return &data.Instance{
		G:          g,
		Customers:  gen.SampleCustomersFrom(pool, m, rng),
		Facilities: gen.NodesFacilities(pool, gen.UniformCapacity(c)),
		K:          k,
	}, nil
}

// runT4 reproduces Table IV: the four cities with m = 512, k = 51,
// c = 20, ℓ = n. The exact solver is reported as failing (the paper's
// Gurobi "did not terminate within one week") and is attempted on every
// city regardless of earlier timeouts; BRNN is included as the paper
// does. City generation happens inside the cells, shared per city.
func runT4(cfg Config, emit func(Row)) error {
	var points []sweepPoint
	for i, name := range gen.CityNames {
		algos := []Algo{}
		if !cfg.SkipBRNN {
			algos = append(algos, AlgoBRNN)
		}
		algos = append(algos, AlgoHilbert, AlgoNaive, AlgoWMA)
		points = append(points, sweepPoint{
			x: name, xv: float64(i),
			inst: func() (*data.Instance, error) {
				return cityInstance(name, cfg, 512, 51, 20)
			},
			algos: algos,
			exact: true,
		})
	}
	return runSweep("T4", points, false, cfg, emit)
}

// runF10 reproduces the Aalborg scalability experiment: growing m with
// k = 0.1·m, c = 20 (o = 0.5), ℓ = n. The city network and candidate
// set are generated once (lazily, inside whichever cell gets there
// first) and read by every point's builder; each cell solves its own
// copy of its point's instance (runSweep).
func runF10(cfg Config, emit func(Row)) error {
	type f10Base struct {
		inst *data.Instance // G and Facilities set; Customers/K per point
		pool []int32
	}
	base := lazy(func() (*f10Base, error) {
		p, err := gen.CityPreset("aalborg", 2*cityScale(cfg), cfg.Seed)
		if err != nil {
			return nil, err
		}
		g, err := gen.City(p)
		if err != nil {
			return nil, err
		}
		pool := gen.LargestComponent(g)
		facs := gen.NodesFacilities(pool, gen.UniformCapacity(20))
		return &f10Base{inst: &data.Instance{G: g, Facilities: facs}, pool: pool}, nil
	})
	var points []sweepPoint
	for idx, m := range scaleInts([]int{128, 256, 512, 1024}, cfg.Scale) {
		algos := []Algo{AlgoWMA, AlgoHilbert, AlgoNaive}
		if !cfg.SkipBRNN && idx == 0 {
			algos = append(algos, AlgoBRNN)
		}
		points = append(points, sweepPoint{
			x: "m",
			// m is clamped to the component size, known only after
			// generation; report the clamped value, as before.
			xvFn: func(inst *data.Instance) float64 { return float64(inst.M()) },
			inst: func() (*data.Instance, error) {
				b, err := base()
				if err != nil {
					return nil, err
				}
				mm := m
				if mm > len(b.pool) {
					mm = len(b.pool)
				}
				rng := rand.New(rand.NewSource(cfg.Seed + int64(mm)))
				inst := *b.inst // G and Facilities are the base's; runSweep copies them per cell
				inst.Customers = gen.SampleCustomersFrom(b.pool, mm, rng)
				inst.K = max(1, mm/10)
				return &inst, nil
			},
			algos: algos,
		})
	}
	return runSweep("F10", points, true, cfg, emit)
}
