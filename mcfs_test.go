package mcfs_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcfs"
)

// buildInstance assembles a moderate synthetic instance through the
// public API only.
func buildInstance(t *testing.T, seed int64) *mcfs.Instance {
	t.Helper()
	g, err := mcfs.GenerateSynthetic(mcfs.SyntheticConfig{N: 600, Alpha: 2.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	pool := mcfs.LargestComponent(g)
	return &mcfs.Instance{
		G:          g,
		Customers:  mcfs.SampleCustomersFrom(pool, 60, rng),
		Facilities: mcfs.SampleFacilitiesFrom(pool, 120, rng, mcfs.UniformCapacity(10)),
		K:          12,
	}
}

func TestPublicAPISolveFlow(t *testing.T) {
	inst := buildInstance(t, 1)
	sol, err := mcfs.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	if len(sol.Selected) == 0 || len(sol.Assignment) != inst.M() {
		t.Fatalf("solution shape: %d selected, %d assigned", len(sol.Selected), len(sol.Assignment))
	}
}

func TestPublicAPIAllSolvers(t *testing.T) {
	inst := buildInstance(t, 2)
	for _, a := range []mcfs.Algorithm{mcfs.AlgorithmWMA, mcfs.AlgorithmUniformFirst, mcfs.AlgorithmHilbert, mcfs.AlgorithmNaive} {
		sol, _, err := a.Solve(context.Background(), inst, mcfs.WithSeed(3))
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if _, err := inst.CheckSolution(sol); err != nil {
			t.Fatalf("%s: invalid solution: %v", a, err)
		}
	}
}

func TestPublicAPIBRNNSmall(t *testing.T) {
	// BRNN is the slow baseline; use a smaller instance.
	g, err := mcfs.GenerateSynthetic(mcfs.SyntheticConfig{N: 200, Alpha: 2.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pool := mcfs.LargestComponent(g)
	inst := &mcfs.Instance{
		G:          g,
		Customers:  mcfs.SampleCustomersFrom(pool, 20, rng),
		Facilities: mcfs.SampleFacilitiesFrom(pool, 40, rng, mcfs.UniformCapacity(5)),
		K:          6,
	}
	sol, _, err := mcfs.AlgorithmBRNN.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExactAndOrdering(t *testing.T) {
	g, err := mcfs.GenerateSynthetic(mcfs.SyntheticConfig{N: 120, Alpha: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pool := mcfs.LargestComponent(g)
	inst := &mcfs.Instance{
		G:          g,
		Customers:  mcfs.SampleCustomersFrom(pool, 8, rng),
		Facilities: mcfs.SampleFacilitiesFrom(pool, 7, rng, mcfs.UniformCapacity(3)),
		K:          3,
	}
	exact, err := mcfs.SolveExact(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Optimal {
		t.Fatal("unbounded exact solve not optimal")
	}
	exh, _, err := mcfs.AlgorithmExhaustive.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Solution.Objective != exh.Objective {
		t.Fatalf("exact %d != exhaustive %d", exact.Solution.Objective, exh.Objective)
	}
	wma, err := mcfs.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if wma.Objective < exact.Solution.Objective {
		t.Fatal("heuristic beats optimum")
	}
}

func TestPublicAPIExactTimeout(t *testing.T) {
	inst := buildInstance(t, 8)
	res, err := mcfs.SolveExact(inst, mcfs.WithTimeBudget(time.Nanosecond))
	if err == nil {
		if !res.Optimal {
			t.Fatal("no error, not optimal")
		}
		return
	}
	if !errors.Is(err, mcfs.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestPublicAPIProgressAndOptions pins what the options reach across
// the registry (the option × solver table of DESIGN.md §9): WithProgress
// fires on the WMA main loop, so for wma and uf only, and WithSeed
// changes naive's output and no other algorithm's.
func TestPublicAPIProgressAndOptions(t *testing.T) {
	// Occupancy 0.8 (16 customers, k = 5 of 7 candidates of capacity 4),
	// where Naive's random customer order shows in its solution.
	inst := tinyInstance(t)
	rng := rand.New(rand.NewSource(12))
	pool := mcfs.LargestComponent(inst.G)
	inst.Customers = mcfs.SampleCustomersFrom(pool, 16, rng)
	inst.Facilities = mcfs.SampleFacilitiesFrom(pool, 7, rng, mcfs.UniformCapacity(4))
	for _, a := range mcfs.Algorithms() {
		calls := 0
		progress := mcfs.WithProgress(func(mcfs.IterationStats) { calls++ })
		one, _, err := a.Solve(context.Background(), inst, progress, mcfs.WithSeed(1))
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		two, _, err := a.Solve(context.Background(), inst, mcfs.WithSeed(2))
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if fires := a == mcfs.AlgorithmWMA || a == mcfs.AlgorithmUniformFirst; (calls > 0) != fires {
			t.Errorf("%s: WithProgress fired %d times, want it to fire: %v", a, calls, fires)
		}
		same := reflect.DeepEqual(one.Selected, two.Selected) && reflect.DeepEqual(one.Assignment, two.Assignment)
		if seeded := a == mcfs.AlgorithmNaive; same == seeded {
			t.Errorf("%s: seeds 1 and 2 give one solution: %v, want: %v", a, same, !seeded)
		}
	}
}

func TestPublicAPIInfeasible(t *testing.T) {
	b := mcfs.NewGraphBuilder(2, false)
	b.AddEdge(0, 1, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &mcfs.Instance{
		G:          g,
		Customers:  []int32{0, 1},
		Facilities: []mcfs.Facility{{Node: 0, Capacity: 1}},
		K:          1,
	}
	if _, err := mcfs.Solve(inst); !errors.Is(err, mcfs.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestPublicAPICityAndScenarios(t *testing.T) {
	p, err := mcfs.CityPreset("aalborg", 0.01, 10)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mcfs.GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	st := mcfs.NetworkStats(g)
	if st.Nodes == 0 || st.AvgDegree < 1.5 {
		t.Fatalf("city stats: %+v", st)
	}

	cow, err := mcfs.NewCoworkingScenario(g, mcfs.CoworkingConfig{Venues: 30, Customers: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	inst := cow.Instance(g, 10)
	sol, err := mcfs.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}

	bikes, err := mcfs.NewBikesScenario(g, mcfs.BikesConfig{Stations: 50, Bikes: 80, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	binst := bikes.Instance(g, 25)
	bsol, err := mcfs.Solve(binst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := binst.CheckSolution(bsol); err != nil {
		t.Fatal(err)
	}

	cust, err := mcfs.DistrictCustomers(g, mcfs.DistrictConfig{Districts: 3, Customers: 40, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(cust) != 40 {
		t.Fatalf("district customers: %d", len(cust))
	}
}

func TestPublicAPISerializationRoundTrip(t *testing.T) {
	inst := buildInstance(t, 14)
	var buf bytes.Buffer
	if err := mcfs.WriteInstance(&buf, inst); err != nil {
		t.Fatal(err)
	}
	got, err := mcfs.ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := mcfs.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mcfs.Solve(got)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective {
		t.Fatalf("round-tripped instance solves differently: %d vs %d", a.Objective, b.Objective)
	}
}

func TestPublicAPIAssignToSelection(t *testing.T) {
	inst := buildInstance(t, 15)
	full, err := mcfs.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	re, err := mcfs.AssignToSelection(inst, full.Selected)
	if err != nil {
		t.Fatal(err)
	}
	if re.Objective != full.Objective {
		t.Fatalf("re-assignment over the same selection changed cost: %d vs %d", re.Objective, full.Objective)
	}
}

// TestPublicAPIAssignToSelectionRejectsMalformedInput: an index out of
// range, a facility selected twice and a customer off the graph are
// errors, neither a panic, a Solution repeating a facility nor
// ErrInfeasible. A selection over the budget K is not malformed.
func TestPublicAPIAssignToSelectionRejectsMalformedInput(t *testing.T) {
	b := mcfs.NewGraphBuilder(4, false)
	b.AddEdge(0, 1, 2).AddEdge(1, 2, 2).AddEdge(2, 3, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	instance := func(customers ...int32) *mcfs.Instance {
		return &mcfs.Instance{
			G:          g,
			Customers:  customers,
			Facilities: []mcfs.Facility{{Node: 1, Capacity: 1}, {Node: 2, Capacity: 1}},
			K:          1,
		}
	}
	for _, tc := range []struct {
		name     string
		inst     *mcfs.Instance
		selected []int
		want     string // "" = accepted
	}{
		{"negative index", instance(0, 3), []int{-1}, "selected index -1 out of range"},
		{"index equal to l", instance(0, 3), []int{2}, "selected index 2 out of range"},
		{"customer off the graph", instance(0, 7), []int{0, 1}, "customer 1 at invalid node 7"},
		{"repeat beside another", instance(0, 3), []int{0, 0, 1}, "facility 0 selected twice"},
		{"repeat alone", instance(0, 3), []int{0, 0}, "facility 0 selected twice"},
		{"over the budget", instance(0, 3), []int{0, 1}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := mcfs.AssignToSelection(tc.inst, tc.selected)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				if sol.Objective != 4 {
					t.Fatalf("objective %d, want 4", sol.Objective)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, mcfs.ErrInfeasible) {
				t.Fatalf("AssignToSelection(%v) = %+v, %v; want an error naming %q", tc.selected, sol, err, tc.want)
			}
			if sol != nil {
				t.Fatalf("AssignToSelection(%v) returned %+v beside its error", tc.selected, sol)
			}
		})
	}
}

// TestPublicAPIDrawRejectsMalformedSolution: RenderSVG and WriteGeoJSON
// check a solution as CheckSolution does, so an assignment index out of
// range, an assignment shorter than m and a selection holding −1 are
// errors, never a panic or a drawing.
func TestPublicAPIDrawRejectsMalformedSolution(t *testing.T) {
	b := mcfs.NewGraphBuilder(6, false)
	for v := int32(0); v < 5; v++ {
		b.AddEdge(v, v+1, 1)
	}
	g, err := b.SetCoords([]float64{0, 1, 2, 3, 4, 5}, make([]float64, 6)).Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &mcfs.Instance{
		G:          g,
		Customers:  []int32{0, 5},
		Facilities: []mcfs.Facility{{Node: 1, Capacity: 2}, {Node: 4, Capacity: 2}},
		K:          2,
	}
	svg := func(sol *mcfs.Solution) error { return mcfs.RenderSVG(io.Discard, inst, sol) }
	geo := func(sol *mcfs.Solution) error { return mcfs.WriteGeoJSON(io.Discard, inst, sol) }
	for _, tc := range []struct {
		name string
		draw func(*mcfs.Solution) error
		sol  mcfs.Solution
		want string
	}{
		{"svg index past l", svg, mcfs.Solution{Selected: []int{0, 1}, Assignment: []int{9, 0}}, "invalid facility index 9"},
		{"geojson negative index", geo, mcfs.Solution{Selected: []int{0, 1}, Assignment: []int{-3, 0}}, "invalid facility index -3"},
		{"geojson short assignment", geo, mcfs.Solution{Selected: []int{0, 1}, Assignment: []int{0}}, "assignment covers 1 of 2 customers"},
		{"svg selection -1", svg, mcfs.Solution{Selected: []int{-1}, Assignment: []int{0, 1}, Objective: 2}, "selected index -1 out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.draw(&tc.sol); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want an error naming %q", err, tc.want)
			}
		})
	}
	valid := &mcfs.Solution{Selected: []int{0, 1}, Assignment: []int{0, 1}, Objective: 2}
	if err := svg(valid); err != nil {
		t.Fatalf("RenderSVG of a valid solution: %v", err)
	}
	if err := geo(valid); err != nil {
		t.Fatalf("WriteGeoJSON of a valid solution: %v", err)
	}
}

// TestPublicAPINilInstance: every exported function that takes an
// *Instance returns an error for a nil one rather than panicking, and
// RestoreReallocator rejects a nil snapshot the same way.
func TestPublicAPINilInstance(t *testing.T) {
	inst := tinyInstance(t)
	r, err := mcfs.NewReallocator(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sol := &mcfs.Solution{Selected: []int{0}, Assignment: []int{}}
	solved := func(_ *mcfs.Solution, err error) error { return err }
	entries := map[string]func(*mcfs.Instance) error{
		"Solve":                 func(in *mcfs.Instance) error { return solved(mcfs.Solve(in)) },
		"SolveCtx":              func(in *mcfs.Instance) error { return solved(mcfs.SolveCtx(ctx, in)) },
		"SolveExact":            func(in *mcfs.Instance) error { _, err := mcfs.SolveExact(in); return err },
		"SolveExactCtx":         func(in *mcfs.Instance) error { _, err := mcfs.SolveExactCtx(ctx, in); return err },
		"AssignToSelection":     func(in *mcfs.Instance) error { return solved(mcfs.AssignToSelection(in, []int{0})) },
		"AssignToSelectionCtx":  func(in *mcfs.Instance) error { return solved(mcfs.AssignToSelectionCtx(ctx, in, []int{0})) },
		"Improve":               func(in *mcfs.Instance) error { _, _, err := mcfs.Improve(in, sol); return err },
		"ImproveCtx":            func(in *mcfs.Instance) error { _, _, err := mcfs.ImproveCtx(ctx, in, sol); return err },
		"NewReallocator":        func(in *mcfs.Instance) error { _, err := mcfs.NewReallocator(in, 0); return err },
		"NewReallocatorCtx":     func(in *mcfs.Instance) error { _, err := mcfs.NewReallocatorCtx(ctx, in, 0); return err },
		"RestoreReallocator":    func(in *mcfs.Instance) error { _, err := mcfs.RestoreReallocator(in, snap, 0); return err },
		"RestoreReallocatorCtx": func(in *mcfs.Instance) error { _, err := mcfs.RestoreReallocatorCtx(ctx, in, snap, 0); return err },
		"WriteInstance":         func(in *mcfs.Instance) error { return mcfs.WriteInstance(&bytes.Buffer{}, in) },
		"RenderSVG":             func(in *mcfs.Instance) error { return mcfs.RenderSVG(&bytes.Buffer{}, in, nil) },
		"WriteGeoJSON":          func(in *mcfs.Instance) error { return mcfs.WriteGeoJSON(&bytes.Buffer{}, in, nil) },
	}
	for _, a := range mcfs.Algorithms() {
		entries["Algorithm.Solve/"+a.String()] = func(in *mcfs.Instance) error {
			_, _, err := a.Solve(ctx, in)
			return err
		}
	}
	check := func(name string, call func() error, want string) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s panicked: %v", name, p)
			}
		}()
		if err := call(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want an error naming %q", name, err, want)
		}
	}
	for name, call := range entries {
		check(name+"(nil)", func() error { return call(nil) }, "nil instance")
	}
	check("RestoreReallocator(inst, nil)", func() error {
		_, err := mcfs.RestoreReallocator(inst, nil, 0)
		return err
	}, "nil snapshot")
}

func TestPublicAPIQualityOrdering(t *testing.T) {
	// The paper's headline ordering on clustered data, in aggregate:
	// WMA <= Hilbert and WMA <= Naive (BRNN excluded for runtime).
	var wmaSum, hilbertSum, naiveSum int64
	for seed := int64(0); seed < 5; seed++ {
		g, err := mcfs.GenerateSynthetic(mcfs.SyntheticConfig{N: 800, Alpha: 1.8, Clusters: 20, Seed: 20 + seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(30 + seed))
		pool := mcfs.LargestComponent(g)
		// Tight occupancy (o = 0.8): the regime where exact matching and
		// careful selection pay off (paper Fig. 7).
		inst := &mcfs.Instance{
			G:          g,
			Customers:  mcfs.SampleCustomersFrom(pool, 80, rng),
			Facilities: mcfs.NodesFacilities(pool, mcfs.UniformCapacity(5)),
			K:          20,
		}
		w, err := mcfs.Solve(inst)
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := mcfs.AlgorithmHilbert.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := mcfs.AlgorithmNaive.Solve(context.Background(), inst, mcfs.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		wmaSum += w.Objective
		hilbertSum += h.Objective
		naiveSum += n.Objective
	}
	if wmaSum > hilbertSum {
		t.Errorf("WMA aggregate %d worse than Hilbert %d on clustered data", wmaSum, hilbertSum)
	}
	if wmaSum > naiveSum {
		t.Errorf("WMA aggregate %d worse than Naive %d", wmaSum, naiveSum)
	}
}

func TestPublicAPIReallocator(t *testing.T) {
	inst := buildInstance(t, 16)
	r, err := mcfs.NewReallocator(inst, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.AddCustomer(inst.Customers[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveCustomer(h); err != nil {
		t.Fatal(err)
	}
	finalInst, sol, err := r.Solution()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := finalInst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Arrivals != 1 || st.Departures != 1 || st.FullSolves < 1 {
		t.Fatalf("stats = %+v", st)
	}
}
