package realsim

import (
	"context"
	"math"
	"testing"

	"mcfs/internal/core"
	"mcfs/internal/gen"
	"mcfs/internal/graph"
)

func cityGraph(t *testing.T) *graph.Graph {
	t.Helper()
	p, err := gen.CityPreset("copenhagen", 0.005, 17)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.City(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCoworkingScenario(t *testing.T) {
	g := cityGraph(t)
	sc, err := Coworking(g, CoworkingConfig{Venues: 40, Customers: 120, MeanHours: 9, Omega: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Venues) != 40 || len(sc.Customers) != 120 {
		t.Fatalf("sizes: %d venues %d customers", len(sc.Venues), len(sc.Customers))
	}
	nodes := map[int32]bool{}
	hoursSum := 0
	for _, v := range sc.Venues {
		if nodes[v.Node] {
			t.Fatal("duplicate venue node")
		}
		nodes[v.Node] = true
		if v.Hours < 1 || v.Hours > 24 {
			t.Fatalf("hours %d out of range", v.Hours)
		}
		if v.Occupancy <= 0 {
			t.Fatalf("occupancy %v", v.Occupancy)
		}
		hoursSum += v.Hours
	}
	if avg := float64(hoursSum) / 40; avg < 6 || avg > 12 {
		t.Fatalf("mean hours %.1f far from configured 9", avg)
	}
	for _, c := range sc.Customers {
		if c < 0 || int(c) >= g.N() {
			t.Fatalf("customer node %d out of range", c)
		}
	}
	inst := sc.Instance(g, 20)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.L() != 40 || inst.M() != 120 || inst.K != 20 {
		t.Fatal("instance assembly wrong")
	}
}

func TestCoworkingDeterministic(t *testing.T) {
	g := cityGraph(t)
	cfg := CoworkingConfig{Venues: 20, Customers: 50, Seed: 5}
	a, err := Coworking(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Coworking(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Customers {
		if a.Customers[i] != b.Customers[i] {
			t.Fatal("same seed, different customers")
		}
	}
}

func TestCoworkingCustomersFollowOccupancy(t *testing.T) {
	// Customers should concentrate near high-occupancy venues: the mean
	// network distance from a customer to its nearest venue must be far
	// below the graph-wide mean distance to the nearest venue.
	g := cityGraph(t)
	sc, err := Coworking(g, CoworkingConfig{Venues: 15, Customers: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int32, len(sc.Venues))
	for i, v := range sc.Venues {
		nodes[i] = v.Node
	}
	dist, _, err := g.MultiSourceDijkstraCtx(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	var custSum, allSum float64
	reachable := 0
	for _, c := range sc.Customers {
		custSum += float64(dist[c])
	}
	for v := 0; v < g.N(); v++ {
		if dist[v] < graph.Inf {
			allSum += float64(dist[v])
			reachable++
		}
	}
	custMean := custSum / float64(len(sc.Customers))
	allMean := allSum / float64(reachable)
	if custMean > allMean*1.05 {
		t.Fatalf("customers not concentrated: mean %.0f vs graph mean %.0f", custMean, allMean)
	}
}

func TestCoworkingValidation(t *testing.T) {
	g := cityGraph(t)
	if _, err := Coworking(g, CoworkingConfig{Venues: 1, Customers: 5}); err == nil {
		t.Fatal("single venue accepted")
	}
	if _, err := Coworking(g, CoworkingConfig{Venues: g.N() + 1, Customers: 5}); err == nil {
		t.Fatal("too many venues accepted")
	}
	if _, err := Coworking(g, CoworkingConfig{Venues: 5, Customers: 5, Omega: 1.5}); err == nil {
		t.Fatal("omega > 1 accepted")
	}
}

func TestCoworkingSolvable(t *testing.T) {
	g := cityGraph(t)
	sc, err := Coworking(g, CoworkingConfig{Venues: 30, Customers: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	inst := sc.Instance(g, 15)
	sol, err := core.SolveCtx(context.Background(), inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
}

func TestDistrictCustomers(t *testing.T) {
	g := cityGraph(t)
	cust, err := DistrictCustomers(g, DistrictConfig{Districts: 3, Customers: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(cust) != 100 {
		t.Fatalf("placed %d customers", len(cust))
	}
	for _, c := range cust {
		if c < 0 || int(c) >= g.N() {
			t.Fatal("customer out of range")
		}
	}
	// Distribution must be district-skewed: not all districts equally hit.
	counts := map[int]int{}
	minX, maxX, minY, maxY := coordExtent(g)
	for _, c := range cust {
		x, y := g.Coord(c)
		counts[gridIndex(y, minY, maxY, 3)*3+gridIndex(x, minX, maxX, 3)]++
	}
	max, min := 0, len(cust)
	for _, v := range counts {
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	if max == min && len(counts) > 1 {
		t.Fatal("district weighting had no effect")
	}
}

func TestBikesScenario(t *testing.T) {
	g := cityGraph(t)
	sc, err := Bikes(g, BikesConfig{Stations: 80, Bikes: 150, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Stations) != 80 || len(sc.Bikes) != 150 {
		t.Fatalf("sizes: %d stations %d bikes", len(sc.Stations), len(sc.Bikes))
	}
	nodes := map[int32]bool{}
	for _, s := range sc.Stations {
		if nodes[s.Node] {
			t.Fatal("duplicate station node")
		}
		nodes[s.Node] = true
		if s.Capacity < 5 || s.Capacity > 25 {
			t.Fatalf("capacity %d outside default range", s.Capacity)
		}
	}
	// Demand variance: nonnegative, not identically distributed.
	var maxV, sum float64
	for _, v := range sc.DemandVariance {
		if v < 0 {
			t.Fatal("negative variance")
		}
		if v > maxV {
			maxV = v
		}
		sum += v
	}
	mean := sum / float64(len(sc.DemandVariance))
	if maxV < 2*mean {
		t.Fatalf("variance field too flat: max %.3g mean %.3g", maxV, mean)
	}
	inst := sc.Instance(g, 40)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	sol, err := core.SolveCtx(context.Background(), inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
}

func TestBikesDeterministic(t *testing.T) {
	g := cityGraph(t)
	cfg := BikesConfig{Stations: 30, Bikes: 40, Seed: 21}
	a, err := Bikes(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bikes(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Bikes {
		if a.Bikes[i] != b.Bikes[i] {
			t.Fatal("same seed, different bikes")
		}
	}
	for i := range a.DemandVariance {
		if math.Abs(a.DemandVariance[i]-b.DemandVariance[i]) > 1e-12 {
			t.Fatal("same seed, different variance field")
		}
	}
}

func TestBikesValidation(t *testing.T) {
	g := cityGraph(t)
	if _, err := Bikes(g, BikesConfig{Stations: 0, Bikes: 5}); err == nil {
		t.Fatal("zero stations accepted")
	}
	if _, err := Bikes(g, BikesConfig{Stations: g.N() + 5, Bikes: 5}); err == nil {
		t.Fatal("too many stations accepted")
	}
}
