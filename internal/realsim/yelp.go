// Package realsim simulates the paper's two real-world data scenarios
// (§VII-F) from seeded synthetic sources, preserving the published
// derivation pipelines while replacing the proprietary raw inputs:
//
//   - Coworking (Yelp-style): venues with occupancies and operational
//     hours; customers distributed by the paper's network-Voronoi
//     triangle formula m_Δ = O_i·(ω·O_j/Σ_j O_j + (1−ω)·area share);
//   - Dockless bike sharing: a per-hour bike-flow field over the street
//     network, nodewise divergence, variance across hours as the docking
//     demand proxy, and a station/capacity generator.
package realsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// Venue is a candidate coworking facility: a node with an occupancy
// (used to derive the customer distribution) and daily operational hours
// (its capacity proxy, as in the paper).
type Venue struct {
	Node      int32
	Occupancy float64
	Hours     int
}

// CoworkingConfig parameterizes the coworking scenario generator.
type CoworkingConfig struct {
	Venues    int     // number of candidate venues (Las Vegas: 4089, Copenhagen: 164)
	Customers int     // coworkers to place (1000 / 200)
	MeanHours int     // mean operational hours (the paper reports 9)
	Omega     float64 // the ω mixing weight; the paper's default is 0.5
	Seed      int64
}

// CoworkingScenario holds the generated instance ingredients; K is left
// to the experiment (the paper sweeps it).
type CoworkingScenario struct {
	Venues    []Venue
	Customers []int32
}

// Coworking generates venues on the network and distributes customers
// with the Voronoi/triangle technique: each node belongs to the Voronoi
// cell of its nearest venue i and to the "triangle" identified by its
// second-nearest venue j; the triangle receives customer mass
// O_i·(ω·O_j/Σ_j O_j + (1−ω)·|triangle|/|cell|), spread uniformly over
// its nodes (node count is the network analogue of triangle area).
func Coworking(g *graph.Graph, cfg CoworkingConfig) (*CoworkingScenario, error) {
	if cfg.Venues < 2 {
		return nil, fmt.Errorf("realsim: need at least 2 venues, got %d", cfg.Venues)
	}
	if cfg.Venues > g.N() {
		return nil, fmt.Errorf("realsim: %d venues exceed %d nodes", cfg.Venues, g.N())
	}
	if cfg.MeanHours <= 0 {
		cfg.MeanHours = 9
	}
	if cfg.Omega < 0 || cfg.Omega > 1 {
		return nil, fmt.Errorf("realsim: omega %v outside [0,1]", cfg.Omega)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Venues at distinct nodes; occupancy is heavy-tailed (lognormal),
	// hours cluster around the mean like café opening times do.
	perm := rng.Perm(g.N())
	venues := make([]Venue, cfg.Venues)
	nodes := make([]int32, cfg.Venues)
	for i := range venues {
		hours := cfg.MeanHours + int(math.Round(rng.NormFloat64()*2))
		if hours < 1 {
			hours = 1
		}
		if hours > 24 {
			hours = 24
		}
		venues[i] = Venue{
			Node:      int32(perm[i]),
			Occupancy: math.Exp(rng.NormFloat64()),
			Hours:     hours,
		}
		nodes[i] = venues[i].Node
	}

	// Network Voronoi cells and triangles.
	owner, _ := g.MultiSourceTwoNearest(nodes)
	type cellKey struct{ i, j int32 }
	triNodes := make(map[cellKey][]int32)
	cellSize := make(map[int32]int)
	neighborOcc := make(map[int32]float64) // Σ_j O_j over triangles of cell i
	seenPair := make(map[cellKey]bool)
	for v := 0; v < g.N(); v++ {
		i, j := owner[0][v], owner[1][v]
		if i < 0 {
			continue // node in a venue-less component
		}
		if j < 0 {
			j = i // degenerate: single venue reachable; one triangle
		}
		k := cellKey{i, j}
		triNodes[k] = append(triNodes[k], int32(v))
		cellSize[i]++
		if !seenPair[k] {
			seenPair[k] = true
			neighborOcc[i] += venues[j].Occupancy
		}
	}

	// Triangle masses per the paper's formula, then node weights. Keys
	// are visited in sorted order: float accumulation order must be
	// deterministic for reproducible sampling.
	keys := make([]cellKey, 0, len(triNodes))
	for k := range triNodes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].i != keys[b].i {
			return keys[a].i < keys[b].i
		}
		return keys[a].j < keys[b].j
	})
	nodeWeight := make([]float64, g.N())
	var totalMass float64
	for _, k := range keys {
		ns := triNodes[k]
		oi := venues[k.i].Occupancy
		oj := venues[k.j].Occupancy
		share := float64(len(ns)) / float64(cellSize[k.i])
		mass := oi * (cfg.Omega*oj/neighborOcc[k.i] + (1-cfg.Omega)*share)
		per := mass / float64(len(ns))
		for _, v := range ns {
			nodeWeight[v] += per
		}
		totalMass += mass
	}
	if totalMass <= 0 {
		return nil, fmt.Errorf("realsim: degenerate customer distribution")
	}

	customers := sampleByWeight(rng, nodeWeight, cfg.Customers)
	return &CoworkingScenario{Venues: venues, Customers: customers}, nil
}

// Instance assembles a data.Instance from the scenario with capacity =
// operational hours (the paper's proxy) and budget k.
func (s *CoworkingScenario) Instance(g *graph.Graph, k int) *data.Instance {
	facs := make([]data.Facility, len(s.Venues))
	for j, v := range s.Venues {
		facs[j] = data.Facility{Node: v.Node, Capacity: v.Hours}
	}
	return &data.Instance{G: g, Customers: s.Customers, Facilities: facs, K: k}
}

// sampleByWeight draws count nodes proportionally to weight (with
// replacement: several customers may share a node, as in the paper's
// scaled experiments).
func sampleByWeight(rng *rand.Rand, weight []float64, count int) []int32 {
	cum := make([]float64, len(weight))
	var total float64
	for i, w := range weight {
		total += w
		cum[i] = total
	}
	out := make([]int32, count)
	for c := 0; c < count; c++ {
		target := rng.Float64() * total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[c] = int32(lo)
	}
	return out
}

// DistrictConfig parameterizes the Copenhagen-style district-population
// customer distribution (§VII-F.1b): the city is cut into a
// Districts×Districts coordinate grid, each district receives a random
// population weight, and customers are placed on random nodes of
// districts drawn proportionally to population.
type DistrictConfig struct {
	Districts int // grid side (e.g., 4 → 16 districts)
	Customers int
	Seed      int64
}

// DistrictCustomers places customers per district populations.
func DistrictCustomers(g *graph.Graph, cfg DistrictConfig) ([]int32, error) {
	if !g.HasCoords() {
		return nil, fmt.Errorf("realsim: district distribution requires coordinates")
	}
	if cfg.Districts < 1 {
		cfg.Districts = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	minX, maxX, minY, maxY := g.Extent()
	d := cfg.Districts
	pop := make([]float64, d*d)
	for i := range pop {
		pop[i] = math.Exp(rng.NormFloat64()) // lognormal district populations
	}
	weight := make([]float64, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		x, y := g.Coord(v)
		cx := gridIndex(x, minX, maxX, d)
		cy := gridIndex(y, minY, maxY, d)
		weight[v] = pop[cy*d+cx]
	}
	return sampleByWeight(rng, weight, cfg.Customers), nil
}

func gridIndex(v, lo, hi float64, d int) int {
	if hi <= lo {
		return 0
	}
	i := int((v - lo) / (hi - lo) * float64(d))
	if i < 0 {
		i = 0
	}
	if i >= d {
		i = d - 1
	}
	return i
}
