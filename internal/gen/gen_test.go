package gen

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mcfs/internal/graph"
)

func TestSyntheticUniformBasics(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{N: 2000, Alpha: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2000 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.HasCoords() {
		t.Fatal("no coords")
	}
	// Expected degree under the radius rule is π·α² ≈ 12.6 for α = 2.
	if d := g.AvgDegree(); d < 9 || d > 16 {
		t.Fatalf("avg degree %v, want ≈ 12.6", d)
	}
	// Edge weights must match scaled Euclidean distances.
	checked := 0
	for v := int32(0); v < int32(g.N()) && checked < 200; v++ {
		g.Neighbors(v, func(u int32, w int64) bool {
			want := int64(math.Round(g.Euclid(v, u) * WeightScale))
			if want < 1 {
				want = 1
			}
			if w != want {
				t.Fatalf("edge (%d,%d) weight %d, want %d", v, u, w, want)
			}
			checked++
			return checked < 200
		})
	}
	if checked == 0 {
		t.Fatal("no edges generated")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, err := Synthetic(SyntheticConfig{N: 500, Alpha: 1.5, Clusters: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(SyntheticConfig{N: 500, Alpha: 1.5, Clusters: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("same seed, different graphs: %d/%d vs %d/%d", a.N(), a.M(), b.N(), b.M())
	}
	if !sameDistances(a, b) {
		t.Fatal("same seed, different distances")
	}
	c, err := Synthetic(SyntheticConfig{N: 500, Alpha: 1.5, Clusters: 10, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if c.M() == a.M() && sameDistances(a, c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

// sameDistances compares the two graphs' distances from node 0.
func sameDistances(a, b *graph.Graph) bool {
	da, aerr := a.DijkstraCtx(context.Background(), 0)
	db, berr := b.DijkstraCtx(context.Background(), 0)
	return aerr == nil && berr == nil && slices.Equal(da, db)
}

func TestSyntheticClusteredStructure(t *testing.T) {
	const clusters = 20
	g, err := Synthetic(SyntheticConfig{N: 3000, Alpha: 1.5, Clusters: clusters, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Cluster centers (nodes 0..19) must form a clique: degree ≥ clusters-1.
	for c := int32(0); c < clusters; c++ {
		if d := g.Degree(c); d < clusters-1 {
			t.Fatalf("center %d degree %d < clique degree %d", c, d, clusters-1)
		}
	}
	// Clustered layouts concentrate points: mean pairwise NN distance of a
	// sample should be well below the uniform layout's.
	uni, err := Synthetic(SyntheticConfig{N: 3000, Alpha: 1.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if nnMean(g, 200) > nnMean(uni, 200) {
		t.Fatal("clustered layout is not denser than uniform")
	}
}

// nnMean samples nodes and averages the Euclidean distance to their
// nearest sampled peer.
func nnMean(g *graph.Graph, sample int) float64 {
	step := g.N() / sample
	if step == 0 {
		step = 1
	}
	var nodes []int32
	for v := 0; v < g.N(); v += step {
		nodes = append(nodes, int32(v))
	}
	var sum float64
	for _, v := range nodes {
		best := math.Inf(1)
		for _, u := range nodes {
			if u == v {
				continue
			}
			if d := g.Euclid(v, u); d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(len(nodes))
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := Synthetic(SyntheticConfig{N: 0, Alpha: 1}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Synthetic(SyntheticConfig{N: 10, Alpha: 0}); err == nil {
		t.Fatal("Alpha=0 accepted")
	}
}

func TestSyntheticDensityGrowsWithAlpha(t *testing.T) {
	low, err := Synthetic(SyntheticConfig{N: 2000, Alpha: 1.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Synthetic(SyntheticConfig{N: 2000, Alpha: 2.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if high.AvgDegree() <= low.AvgDegree() {
		t.Fatalf("degree did not grow with alpha: %v vs %v", low.AvgDegree(), high.AvgDegree())
	}
	// Low alpha should fragment the network (the paper's Fig. 6c setting).
	_, countLow := low.Components()
	_, countHigh := high.Components()
	if countLow <= countHigh && countLow == 1 {
		t.Fatalf("low alpha did not fragment: %d vs %d components", countLow, countHigh)
	}
}

func TestSamplers(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{N: 300, Alpha: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	cust := SampleCustomers(g, 50, rng)
	if len(cust) != 50 {
		t.Fatalf("customers %d", len(cust))
	}
	seen := map[int32]bool{}
	for _, s := range cust {
		if seen[s] {
			t.Fatal("duplicate customer node though m <= n")
		}
		seen[s] = true
	}
	// Oversampling falls back to with-replacement.
	many := SampleCustomers(g, 400, rng)
	if len(many) != 400 {
		t.Fatalf("oversampled customers %d", len(many))
	}

	facs := SampleFacilities(g, 40, rng, UniformCapacity(7))
	if len(facs) != 40 {
		t.Fatalf("facilities %d", len(facs))
	}
	nodes := map[int32]bool{}
	for _, f := range facs {
		if f.Capacity != 7 {
			t.Fatalf("capacity %d", f.Capacity)
		}
		if nodes[f.Node] {
			t.Fatal("duplicate facility node")
		}
		nodes[f.Node] = true
	}

	all := AllNodesFacilities(g, RandomCapacity(1, 10, rng))
	if len(all) != g.N() {
		t.Fatalf("AllNodesFacilities returned %d", len(all))
	}
	for _, f := range all {
		if f.Capacity < 1 || f.Capacity > 10 {
			t.Fatalf("random capacity %d outside [1,10]", f.Capacity)
		}
	}

	// A graph with no nodes has no component to sample from.
	empty, err := graph.NewBuilder(0, false).Build()
	if err != nil {
		t.Fatal(err)
	}
	if pool := LargestComponent(empty); len(pool) != 0 {
		t.Fatalf("LargestComponent of an empty graph = %v, want no nodes", pool)
	}
}

func TestCityPresetsStats(t *testing.T) {
	// Scaled-down presets must land near the Table III shape: avg degree
	// ≈ 2.0–2.6 arcs, avg edge length within 25% of the target, dominant
	// connected component.
	for _, name := range CityNames {
		p, err := CityPreset(name, 0.02, 11)
		if err != nil {
			t.Fatal(err)
		}
		g, err := City(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := Stats(g)
		if math.Abs(float64(st.Nodes-p.Nodes)) > 0.2*float64(p.Nodes) {
			t.Fatalf("%s: %d nodes, target %d", name, st.Nodes, p.Nodes)
		}
		if st.AvgDegree < 1.8 || st.AvgDegree > 2.8 {
			t.Fatalf("%s: avg degree %.2f outside road-network band", name, st.AvgDegree)
		}
		if st.AvgEdgeLength < 0.75*p.SegmentLen || st.AvgEdgeLength > 1.25*p.SegmentLen {
			t.Fatalf("%s: avg edge length %.1f, target %.1f", name, st.AvgEdgeLength, p.SegmentLen)
		}
		comp, count := g.Components()
		sizes := graph.ComponentSizes(comp, count)
		max := 0
		for _, s := range sizes {
			if s > max {
				max = s
			}
		}
		if float64(max) < 0.9*float64(g.N()) {
			t.Fatalf("%s: largest component %d of %d nodes", name, max, g.N())
		}
		if st.MaxDegree < 4 {
			t.Fatalf("%s: max degree %d implausibly low", name, st.MaxDegree)
		}
	}
}

func TestCityUnknownName(t *testing.T) {
	if _, err := CityPreset("atlantis", 1, 1); err == nil {
		t.Fatal("unknown city accepted")
	}
}

func TestCityDeterministic(t *testing.T) {
	p, _ := CityPreset("aalborg", 0.01, 99)
	a, err := City(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := City(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatal("same seed, different city")
	}
}

func TestCityValidation(t *testing.T) {
	if _, err := City(CityParams{Nodes: 2, SegmentLen: 30, BlockLen: 150}); err == nil {
		t.Fatal("tiny city accepted")
	}
	if _, err := City(CityParams{Nodes: 100, SegmentLen: 0, BlockLen: 150}); err == nil {
		t.Fatal("zero segment length accepted")
	}
	if _, err := City(CityParams{Nodes: 100, SegmentLen: 200, BlockLen: 150}); err == nil {
		t.Fatal("block shorter than segment accepted")
	}
}
