// Package gen generates MCFS workloads: the paper's synthetic networks
// (uniform and clustered point placement on a 10³×10³ square with the
// α/√n radius connection rule, §VII-B and Fig. 5), seeded city-like road
// networks calibrated to the statistics of Table III (the OpenStreetMap
// substitute), and customer/facility samplers.
//
// All generators are deterministic given their seed. Coordinates live on
// a [0, Side]² square; edge weights are Euclidean distances scaled by
// WeightScale and rounded to a positive integer, so network distances
// remain exact int64 arithmetic.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// Side is the synthetic square's side length (the paper's 10³).
const Side = 1000.0

// WeightScale converts Euclidean coordinate distance to integer edge
// weights (two decimal digits of precision).
const WeightScale = 100.0

// SyntheticConfig parameterizes the synthetic network generator.
type SyntheticConfig struct {
	N        int     // number of nodes
	Clusters int     // 0 or 1 = uniform; otherwise Gaussian clusters
	Alpha    float64 // density: nodes closer than Alpha/√N (in square units) are connected
	Seed     int64
}

// Synthetic generates a network per the paper's recipe: N points on the
// square (uniform, or Clusters Gaussians with σ² = 1/Clusters in unit
// coordinates whose centers are themselves nodes connected in a clique),
// an edge between every pair closer than Alpha·Side/√N (the paper's
// literal rule), Euclidean weights.
//
// Under this rule the expected degree is π·α²: α = 2 yields ≈ 12.6
// (a solidly connected network) while α = 1.2 yields ≈ 4.5, right at the
// 2-D continuum-percolation threshold — matching the paper's description
// of α = 1.2 as "sparser and less connected ... more similar to real
// road networks" (Fig. 6c). The paper's remark that α = 2 "corresponds
// to an average of two adjacent edges per node" contradicts its own
// formula; we follow the formula, and Fig. 9a reports the measured
// average degree on its x-axis either way.
func Synthetic(cfg SyntheticConfig) (*graph.Graph, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("gen: nonpositive N %d", cfg.N)
	}
	if cfg.Alpha <= 0 {
		return nil, fmt.Errorf("gen: nonpositive Alpha %v", cfg.Alpha)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	xs := make([]float64, cfg.N)
	ys := make([]float64, cfg.N)
	clusters := cfg.Clusters
	if clusters < 2 {
		for i := range xs {
			xs[i] = rng.Float64() * Side
			ys[i] = rng.Float64() * Side
		}
	} else {
		if clusters > cfg.N {
			clusters = cfg.N
		}
		sigma := Side / math.Sqrt(float64(clusters))
		// Cluster centers are the first `clusters` nodes.
		for c := 0; c < clusters; c++ {
			xs[c] = rng.Float64() * Side
			ys[c] = rng.Float64() * Side
		}
		for i := clusters; i < cfg.N; i++ {
			c := (i - clusters) % clusters
			xs[i] = clamp(xs[c]+rng.NormFloat64()*sigma, 0, Side)
			ys[i] = clamp(ys[c]+rng.NormFloat64()*sigma, 0, Side)
		}
	}

	b := graph.NewBuilder(cfg.N, false)
	b.SetCoords(xs, ys)
	radius := cfg.Alpha * Side / math.Sqrt(float64(cfg.N))
	addRadiusEdges(b, xs, ys, radius)
	if clusters >= 2 {
		// Cluster-center clique with Euclidean weights.
		for a := 0; a < clusters; a++ {
			for c := a + 1; c < clusters; c++ {
				b.AddEdge(int32(a), int32(c), euclidWeight(xs[a], ys[a], xs[c], ys[c]))
			}
		}
	}
	return b.Build()
}

// addRadiusEdges connects all pairs within radius using a spatial-hash
// grid (cells of the radius size; each pair is examined once via the
// half-neighborhood scan).
func addRadiusEdges(b *graph.Builder, xs, ys []float64, radius float64) {
	if radius <= 0 {
		return
	}
	cell := func(x, y float64) (int, int) {
		return int(x / radius), int(y / radius)
	}
	buckets := make(map[[2]int][]int32)
	for i := range xs {
		cx, cy := cell(xs[i], ys[i])
		key := [2]int{cx, cy}
		buckets[key] = append(buckets[key], int32(i))
	}
	// Deterministic order: scan nodes by id, pairing each with same- and
	// neighbor-cell nodes of higher id (map iteration order must not leak
	// into edge order, which downstream tie-breaking observes).
	r2 := radius * radius
	for i := range xs {
		cx, cy := cell(xs[i], ys[i])
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[[2]int{cx + dx, cy + dy}] {
					if j > int32(i) {
						link(b, xs, ys, int32(i), j, r2)
					}
				}
			}
		}
	}
}

func link(b *graph.Builder, xs, ys []float64, u, v int32, r2 float64) {
	dx := xs[u] - xs[v]
	dy := ys[u] - ys[v]
	if dx*dx+dy*dy <= r2 {
		b.AddEdge(u, v, euclidWeight(xs[u], ys[u], xs[v], ys[v]))
	}
}

func euclidWeight(x1, y1, x2, y2 float64) int64 {
	w := int64(math.Round(math.Hypot(x1-x2, y1-y2) * WeightScale))
	if w < 1 {
		w = 1
	}
	return w
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SampleCustomers places m customers on nodes drawn uniformly without
// replacement while possible, falling back to with-replacement once the
// node supply is exhausted (the paper's Fig. 8c allows several customers
// per node).
func SampleCustomers(g *graph.Graph, m int, rng *rand.Rand) []int32 {
	return SampleCustomersFrom(allNodes(g), m, rng)
}

// SampleFacilities draws l distinct candidate facility nodes uniformly
// and assigns each a capacity via capFn (called with the facility's
// ordinal).
func SampleFacilities(g *graph.Graph, l int, rng *rand.Rand, capFn func(j int) int) []data.Facility {
	return SampleFacilitiesFrom(allNodes(g), l, rng, capFn)
}

// AllNodesFacilities makes every node a candidate facility (the paper's
// F_p = V setting) with capacities from capFn.
func AllNodesFacilities(g *graph.Graph, capFn func(j int) int) []data.Facility {
	return NodesFacilities(allNodes(g), capFn)
}

// allNodes returns the node ids 0..n-1 of g.
func allNodes(g *graph.Graph) []int32 {
	nodes := make([]int32, g.N())
	for v := range nodes {
		nodes[v] = int32(v)
	}
	return nodes
}

// UniformCapacity returns a capFn yielding the constant c.
func UniformCapacity(c int) func(int) int { return func(int) int { return c } }

// RandomCapacity returns a capFn yielding uniform capacities in [lo, hi]
// (the paper's Fig. 6d uses 1..10).
func RandomCapacity(lo, hi int, rng *rand.Rand) func(int) int {
	return func(int) int { return lo + rng.Intn(hi-lo+1) }
}

// LargestComponent returns the nodes of g's largest connected component
// (ascending ids), none when g has no nodes. Experiments that need
// guaranteed feasibility sample customers and facilities from it.
func LargestComponent(g *graph.Graph) []int32 {
	comp, count := g.Components()
	if count == 0 {
		return nil
	}
	sizes := graph.ComponentSizes(comp, count)
	best := 0
	for c := 1; c < count; c++ {
		if sizes[c] > sizes[best] {
			best = c
		}
	}
	nodes := make([]int32, 0, sizes[best])
	for v, c := range comp {
		if c == int32(best) {
			nodes = append(nodes, int32(v))
		}
	}
	return nodes
}

// SampleCustomersFrom draws m customers from the given node pool
// (without replacement while possible, then with replacement).
func SampleCustomersFrom(nodes []int32, m int, rng *rand.Rand) []int32 {
	customers := make([]int32, 0, m)
	if m <= len(nodes) {
		perm := rng.Perm(len(nodes))
		for i := 0; i < m; i++ {
			customers = append(customers, nodes[perm[i]])
		}
		return customers
	}
	for i := 0; i < m; i++ {
		customers = append(customers, nodes[rng.Intn(len(nodes))])
	}
	return customers
}

// SampleFacilitiesFrom draws l distinct facility nodes from the pool.
func SampleFacilitiesFrom(nodes []int32, l int, rng *rand.Rand, capFn func(j int) int) []data.Facility {
	if l > len(nodes) {
		l = len(nodes)
	}
	perm := rng.Perm(len(nodes))
	facs := make([]data.Facility, l)
	for j := 0; j < l; j++ {
		facs[j] = data.Facility{Node: nodes[perm[j]], Capacity: capFn(j)}
	}
	return facs
}

// NodesFacilities makes every node in the pool a candidate facility.
func NodesFacilities(nodes []int32, capFn func(j int) int) []data.Facility {
	facs := make([]data.Facility, len(nodes))
	for j, v := range nodes {
		facs[j] = data.Facility{Node: v, Capacity: capFn(j)}
	}
	return facs
}
