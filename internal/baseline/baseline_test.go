package baseline

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/graph"
	"mcfs/internal/solver"
	"mcfs/internal/testutil"
)

func randomParams() testutil.Params {
	return testutil.Params{
		MinNodes: 10, MaxNodes: 60,
		MaxCustomers: 10, MaxFacilities: 8,
		MaxCapacity: 3, MaxWeight: 25,
	}
}

type algo struct {
	name string
	run  func(*data.Instance) (*data.Solution, error)
}

func allAlgos() []algo {
	ctx := context.Background()
	return []algo{
		{"hilbert", func(in *data.Instance) (*data.Solution, error) { return HilbertCtx(ctx, in, core.Options{}) }},
		{"brnn", func(in *data.Instance) (*data.Solution, error) { return BRNNCtx(ctx, in, core.Options{}) }},
		{"naive", func(in *data.Instance) (*data.Solution, error) { return NaiveCtx(ctx, in, 7, core.Options{}) }},
	}
}

func TestBaselinesValidOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		inst := testutil.RandomInstance(rng, randomParams())
		for _, a := range allAlgos() {
			sol, err := a.run(inst)
			if err != nil {
				t.Fatalf("trial %d %s: %v (m=%d l=%d k=%d)", trial, a.name, err, inst.M(), inst.L(), inst.K)
			}
			if _, err := inst.CheckSolution(sol); err != nil {
				t.Fatalf("trial %d %s: invalid solution: %v", trial, a.name, err)
			}
		}
	}
}

func TestBaselinesMultiComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	p := randomParams()
	p.Components = 2
	p.MinNodes = 16
	for trial := 0; trial < 15; trial++ {
		inst := testutil.RandomInstance(rng, p)
		for _, a := range allAlgos() {
			sol, err := a.run(inst)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.name, err)
			}
			if _, err := inst.CheckSolution(sol); err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.name, err)
			}
		}
	}
}

func TestBaselinesNeverBeatOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 15; trial++ {
		inst := testutil.RandomInstance(rng, testutil.Params{
			MinNodes: 10, MaxNodes: 40,
			MaxCustomers: 7, MaxFacilities: 6,
			MaxCapacity: 3, MaxWeight: 20,
		})
		opt, err := solver.ExhaustiveCtx(context.Background(), inst, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, a := range allAlgos() {
			sol, err := a.run(inst)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.name, err)
			}
			if sol.Objective < opt.Objective {
				t.Fatalf("trial %d: %s objective %d beats optimum %d — checker bug",
					trial, a.name, sol.Objective, opt.Objective)
			}
		}
	}
}

func TestBaselinesInfeasible(t *testing.T) {
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1, 1).AddEdge(1, 2, 1)
	b.SetCoords([]float64{0, 1, 2}, []float64{0, 0, 0})
	g, _ := b.Build()
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0, 1, 2},
		Facilities: []data.Facility{{Node: 0, Capacity: 1}},
		K:          1,
	}
	for _, a := range allAlgos() {
		if _, err := a.run(inst); !errors.Is(err, data.ErrInfeasible) {
			t.Fatalf("%s: err = %v, want ErrInfeasible", a.name, err)
		}
	}
}

func TestBaselinesEmptyCustomers(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1, 1)
	b.SetCoords([]float64{0, 1}, []float64{0, 0})
	g, _ := b.Build()
	inst := &data.Instance{G: g, Facilities: []data.Facility{{Node: 0, Capacity: 1}}, K: 1}
	for _, a := range allAlgos() {
		sol, err := a.run(inst)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if len(sol.Assignment) != 0 {
			t.Fatalf("%s: nonempty assignment", a.name)
		}
	}
}

func TestHilbertRequiresCoords(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1, 1)
	g, _ := b.Build()
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0},
		Facilities: []data.Facility{{Node: 1, Capacity: 1}},
		K:          1,
	}
	if _, err := HilbertCtx(context.Background(), inst, core.Options{}); !errors.Is(err, ErrNoCoords) {
		t.Fatalf("err = %v, want ErrNoCoords", err)
	}
}

func TestHilbertBucketsRespectCurveOrder(t *testing.T) {
	// Customers along a line; with k=2 the buckets must split the line in
	// half and the facilities snap near the two half centroids.
	const n = 12
	b := graph.NewBuilder(n, false)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = float64(i) * 10
		ys[i] = 0
		if i > 0 {
			b.AddEdge(int32(i-1), int32(i), 10)
		}
	}
	b.SetCoords(xs, ys)
	g, _ := b.Build()
	inst := &data.Instance{G: g, K: 2}
	for i := 0; i < n; i++ {
		inst.Customers = append(inst.Customers, int32(i))
		inst.Facilities = append(inst.Facilities, data.Facility{Node: int32(i), Capacity: 6})
	}
	sol, err := HilbertCtx(context.Background(), inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	// Centroids of halves are at x=25 and x=85 → facilities at nodes 2/3
	// and 8/9. Accept exact centroid-snapping within one node.
	for _, j := range sol.Selected {
		x, _ := g.Coord(inst.Facilities[j].Node)
		if !(x >= 10 && x <= 40) && !(x >= 70 && x <= 100) {
			t.Fatalf("facility snapped to x=%v, far from either half centroid", x)
		}
	}
}

func TestBRNNFirstFacilityIsOneMedian(t *testing.T) {
	// Line of 5 nodes with customers at both ends: the 1-median is the
	// middle node.
	b := graph.NewBuilder(5, false)
	for i := 0; i < 4; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	b.SetCoords([]float64{0, 1, 2, 3, 4}, make([]float64, 5))
	g, _ := b.Build()
	inst := &data.Instance{
		G:         g,
		Customers: []int32{0, 2, 4},
		Facilities: []data.Facility{
			{Node: 0, Capacity: 3}, {Node: 2, Capacity: 3}, {Node: 4, Capacity: 3},
		},
		K: 1,
	}
	sol, err := BRNNCtx(context.Background(), inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Selected) != 1 || inst.Facilities[sol.Selected[0]].Node != 2 {
		t.Fatalf("BRNN first pick = %v, want the 1-median node 2", sol.Selected)
	}
}

func TestBRNNSecondPickAttractsMost(t *testing.T) {
	// After the 1-median at the hub, the second facility must go where it
	// attracts the most customers: the dense cluster, not the single far
	// customer.
	//
	//   hub(0) — 1,2,3 (cluster at distance 10, interconnected)
	//   hub(0) — 4 (far customer at distance 12)
	b := graph.NewBuilder(6, false)
	b.AddEdge(0, 1, 10).AddEdge(0, 2, 10).AddEdge(0, 3, 10)
	b.AddEdge(1, 2, 1).AddEdge(2, 3, 1)
	b.AddEdge(0, 4, 12)
	b.AddEdge(0, 5, 1)
	b.SetCoords(make([]float64, 6), make([]float64, 6))
	g, _ := b.Build()
	inst := &data.Instance{
		G:         g,
		Customers: []int32{1, 2, 3, 4},
		Facilities: []data.Facility{
			{Node: 0, Capacity: 4}, {Node: 2, Capacity: 4}, {Node: 4, Capacity: 4},
		},
		K: 2,
	}
	sol, err := BRNNCtx(context.Background(), inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[int32]bool{}
	for _, j := range sol.Selected {
		nodes[inst.Facilities[j].Node] = true
	}
	if !nodes[2] {
		t.Fatalf("BRNN selected %v; the cluster facility (node 2, attracting 3 customers) must be picked", sol.Selected)
	}
}

func TestNaiveDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	inst := testutil.RandomInstance(rng, randomParams())
	a, err := NaiveCtx(context.Background(), inst, 99, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NaiveCtx(context.Background(), inst, 99, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective {
		t.Fatalf("same seed, different objectives: %d vs %d", a.Objective, b.Objective)
	}
}

func TestNaiveNeverBetterThanWMAOnAverage(t *testing.T) {
	// The paper's headline comparison: exact matching (WMA) beats the
	// greedy naive variant in aggregate.
	rng := rand.New(rand.NewSource(65))
	var wmaSum, naiveSum int64
	for trial := 0; trial < 20; trial++ {
		inst := testutil.RandomInstance(rng, randomParams())
		w, err := core.SolveCtx(context.Background(), inst, core.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n, err := NaiveCtx(context.Background(), inst, int64(trial), core.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wmaSum += w.Objective
		naiveSum += n.Objective
	}
	if wmaSum > naiveSum {
		t.Fatalf("WMA aggregate %d worse than naive aggregate %d", wmaSum, naiveSum)
	}
}

func TestUniformFirstValid(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 15; trial++ {
		inst := testutil.RandomInstance(rng, randomParams())
		sol, err := core.SolveUniformFirstCtx(context.Background(), inst, core.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, err := inst.CheckSolution(sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
