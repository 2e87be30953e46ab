package realsim

import (
	"fmt"
	"math"
	"math/rand"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// BikesConfig parameterizes the dockless-bike-sharing scenario
// (§VII-F.2): docking stations with capacities, and scattered bikes
// (customers) placed by the flow-divergence-variance pipeline.
type BikesConfig struct {
	Stations   int // candidate docking stations (the paper uses 6000)
	Bikes      int // scattered bikes = customers (1000)
	MinCap     int // station capacity range
	MaxCap     int
	Attractors int // commute destinations shaping the flow field
	Seed       int64
}

// BikesScenario is the generated instance material; K is swept by the
// experiment.
type BikesScenario struct {
	Stations []data.Facility
	Bikes    []int32
	// DemandVariance is the per-node normalized docking-demand proxy
	// (exposed for inspection and tests).
	DemandVariance []float64
}

// Bikes generates the scenario. The pipeline follows the paper exactly:
// a per-hour bike-flow vector field g over street segments (here driven
// by commute attractors with morning-in/evening-out rhythms plus noise,
// standing in for the city's traffic-counter interpolation), the
// divergence ∇g at every node per hour (bikes parked there during that
// hour), the variance of ∇g across the 24 hours as the docking-demand
// proxy, and a normalized distribution from which bike positions are
// drawn.
func Bikes(g *graph.Graph, cfg BikesConfig) (*BikesScenario, error) {
	if !g.HasCoords() {
		return nil, fmt.Errorf("realsim: bike flow field requires coordinates")
	}
	if cfg.Stations < 1 || cfg.Stations > g.N() {
		return nil, fmt.Errorf("realsim: station count %d out of range (n=%d)", cfg.Stations, g.N())
	}
	if cfg.MinCap <= 0 {
		cfg.MinCap = 5
	}
	if cfg.MaxCap < cfg.MinCap {
		cfg.MaxCap = cfg.MinCap + 20
	}
	if cfg.Attractors < 1 {
		cfg.Attractors = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Stations at distinct nodes.
	perm := rng.Perm(g.N())
	stations := make([]data.Facility, cfg.Stations)
	for j := range stations {
		stations[j] = data.Facility{
			Node:     int32(perm[j]),
			Capacity: cfg.MinCap + rng.Intn(cfg.MaxCap-cfg.MinCap+1),
		}
	}

	// Commute attractors with random weights.
	minX, maxX, minY, maxY := g.Extent()
	type attractor struct{ x, y, w float64 }
	atts := make([]attractor, cfg.Attractors)
	for i := range atts {
		atts[i] = attractor{
			x: minX + rng.Float64()*(maxX-minX),
			y: minY + rng.Float64()*(maxY-minY),
			w: 0.5 + rng.Float64(),
		}
	}

	// Hourly rhythm: positive = flow toward attractors (morning rush),
	// negative = outbound (evening rush).
	rhythm := func(h int) float64 {
		morning := math.Exp(-sq(float64(h)-8.5) / 4)
		evening := math.Exp(-sq(float64(h)-17.5) / 4)
		return morning - evening
	}

	// Per-hour divergence at each node: sum of signed flows of incident
	// segments. Flow on a segment (u→v by increasing node id) is the
	// projection of the attractor field on the segment direction times
	// the hour rhythm, plus noise. Divergence convention: flow along
	// u→v leaves u (negative contribution) and enters v (positive).
	n := g.N()
	mean := make([]float64, n)
	m2 := make([]float64, n)
	edgeNoise := make(map[[2]int32]float64)
	const hours = 24
	for h := 0; h < hours; h++ {
		div := make([]float64, n)
		rh := rhythm(h)
		for u := int32(0); u < int32(n); u++ {
			ux, uy := g.Coord(u)
			g.Neighbors(u, func(v int32, _ int64) bool {
				if v <= u {
					return true // each undirected segment once
				}
				vx, vy := g.Coord(v)
				dx, dy := vx-ux, vy-uy
				norm := math.Hypot(dx, dy)
				if norm == 0 {
					return true
				}
				// Field at segment midpoint: weighted pull toward attractors.
				mx, my := (ux+vx)/2, (uy+vy)/2
				var fx, fy float64
				for _, a := range atts {
					ax, ay := a.x-mx, a.y-my
					an := math.Hypot(ax, ay) + 1
					fx += a.w * ax / an
					fy += a.w * ay / an
				}
				key := [2]int32{u, v}
				noise, ok := edgeNoise[key]
				if !ok {
					noise = rng.NormFloat64() * 0.1
					edgeNoise[key] = noise
				}
				flow := rh*(fx*dx+fy*dy)/norm + noise*rh
				div[u] -= flow
				div[v] += flow
				return true
			})
		}
		for v := 0; v < n; v++ {
			delta := div[v] - mean[v]
			mean[v] += delta / float64(h+1)
			m2[v] += delta * (div[v] - mean[v])
		}
	}
	variance := make([]float64, n)
	var total float64
	for v := 0; v < n; v++ {
		variance[v] = m2[v] / hours
		total += variance[v]
	}
	if total <= 0 {
		return nil, fmt.Errorf("realsim: degenerate bike demand distribution")
	}

	bikes := sampleByWeight(rng, variance, cfg.Bikes)
	return &BikesScenario{Stations: stations, Bikes: bikes, DemandVariance: variance}, nil
}

// Instance assembles a data.Instance with budget k.
func (s *BikesScenario) Instance(g *graph.Graph, k int) *data.Instance {
	return &data.Instance{G: g, Customers: s.Bikes, Facilities: s.Stations, K: k}
}

func sq(x float64) float64 { return x * x }
