package data

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mcfs/internal/graph"
)

// pathInstance builds a small instance on the path 0-1-2-3-4 (unit
// weights): customers at {0, 4}, facilities at 1 (cap 1) and 3 (cap 2),
// k = 2.
func pathInstance(t *testing.T) *Instance {
	t.Helper()
	b := graph.NewBuilder(5, false)
	for i := 0; i < 4; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{
		G:          g,
		Customers:  []int32{0, 4},
		Facilities: []Facility{{Node: 1, Capacity: 1}, {Node: 3, Capacity: 2}},
		K:          2,
	}
}

func TestValidateOK(t *testing.T) {
	in := pathInstance(t)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	base := pathInstance(t)
	cases := []struct {
		name string
		edit func(in *Instance)
	}{
		{"nil graph", func(in *Instance) { in.G = nil }},
		{"bad customer node", func(in *Instance) { in.Customers[0] = 99 }},
		{"negative customer node", func(in *Instance) { in.Customers[0] = -1 }},
		{"bad facility node", func(in *Instance) { in.Facilities[0].Node = 99 }},
		{"negative capacity", func(in *Instance) { in.Facilities[0].Capacity = -1 }},
		{"duplicate facility node", func(in *Instance) { in.Facilities[1].Node = in.Facilities[0].Node }},
		{"negative k", func(in *Instance) { in.K = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := pathInstance(t)
			_ = base
			c.edit(in)
			if err := in.Validate(); err == nil {
				t.Fatal("Validate accepted invalid instance")
			}
		})
	}
	if err := (*Instance)(nil).Validate(); err == nil {
		t.Fatal("Validate accepted a nil instance")
	}
}

func TestAccessors(t *testing.T) {
	in := pathInstance(t)
	if in.M() != 2 || in.L() != 2 {
		t.Fatalf("M=%d L=%d", in.M(), in.L())
	}
	if in.TotalCapacity() != 3 {
		t.Fatalf("TotalCapacity = %d", in.TotalCapacity())
	}
	nodes := in.FacilityNodes()
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 3 {
		t.Fatalf("FacilityNodes = %v", nodes)
	}
	mask, idx := in.CandidateMask()
	if !mask[1] || !mask[3] || mask[0] || mask[2] {
		t.Fatalf("mask = %v", mask)
	}
	if idx[1] != 0 || idx[3] != 1 {
		t.Fatalf("index = %v", idx)
	}
	// o = m / (k * avgCap) = 2 / (2 * 1.5)
	if got := in.Occupancy(); got < 0.66 || got > 0.67 {
		t.Fatalf("Occupancy = %v", got)
	}
}

func TestFeasible(t *testing.T) {
	in := pathInstance(t)
	ok, kg := in.Feasible()
	if !ok {
		t.Fatal("feasible instance reported infeasible")
	}
	// One component; both customers fit in facility 3 alone (cap 2).
	if kg[0] != 1 {
		t.Fatalf("kg = %v, want [1]", kg)
	}
	in.K = 0
	// kg total (1) > K (0): infeasible.
	if ok, _ := in.Feasible(); ok {
		t.Fatal("k=0 with customers reported feasible")
	}
}

func TestFeasibleInsufficientCapacity(t *testing.T) {
	in := pathInstance(t)
	in.Facilities[0].Capacity = 0
	in.Facilities[1].Capacity = 1
	if ok, _ := in.Feasible(); ok {
		t.Fatal("capacity 1 for 2 customers reported feasible")
	}
}

func TestFeasiblePerComponent(t *testing.T) {
	// Two components: 0-1 and 2-3. Customers in both; facility only in one.
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1, 1).AddEdge(2, 3, 1)
	g, _ := b.Build()
	in := &Instance{
		G:          g,
		Customers:  []int32{0, 2},
		Facilities: []Facility{{Node: 1, Capacity: 10}},
		K:          5,
	}
	if ok, _ := in.Feasible(); ok {
		t.Fatal("customer in facility-less component reported feasible")
	}
	in.Facilities = append(in.Facilities, Facility{Node: 3, Capacity: 1})
	ok, kg := in.Feasible()
	if !ok {
		t.Fatal("now-coverable instance reported infeasible")
	}
	total := 0
	for _, v := range kg {
		total += v
	}
	if total != 2 {
		t.Fatalf("total kg = %d, want 2", total)
	}
}

func TestEvalObjectiveAndCheckSolution(t *testing.T) {
	in := pathInstance(t)
	sol := &Solution{
		Selected:   []int{0, 1},
		Assignment: []int{0, 1}, // customer 0 -> facility@1 (dist 1), customer 4 -> facility@3 (dist 1)
		Objective:  2,
	}
	obj, err := in.CheckSolution(sol)
	if err != nil {
		t.Fatal(err)
	}
	if obj != 2 {
		t.Fatalf("objective = %d, want 2", obj)
	}
}

func TestCheckSolutionErrors(t *testing.T) {
	in := pathInstance(t)
	good := func() *Solution {
		return &Solution{Selected: []int{0, 1}, Assignment: []int{0, 1}, Objective: 2}
	}
	cases := []struct {
		name string
		edit func(s *Solution)
	}{
		{"too many selected", func(s *Solution) { s.Selected = []int{0, 1}; in.K = 1 }},
		{"bad selected index", func(s *Solution) { s.Selected[0] = 9 }},
		{"duplicate selection", func(s *Solution) { s.Selected = []int{1, 1} }},
		{"short assignment", func(s *Solution) { s.Assignment = s.Assignment[:1] }},
		{"unselected facility", func(s *Solution) { s.Selected = []int{1}; s.Assignment = []int{0, 1} }},
		{"capacity violated", func(s *Solution) { s.Assignment = []int{0, 0} }},
		{"wrong objective", func(s *Solution) { s.Objective = 5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in = pathInstance(t)
			s := good()
			c.edit(s)
			if _, err := in.CheckSolution(s); err == nil {
				t.Fatal("CheckSolution accepted invalid solution")
			}
		})
	}
	if _, err := in.CheckSolution(nil); err == nil {
		t.Fatal("nil solution accepted")
	}
}

func TestEvalObjectiveUnreachable(t *testing.T) {
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1, 1).AddEdge(2, 3, 1)
	g, _ := b.Build()
	in := &Instance{
		G:          g,
		Customers:  []int32{0},
		Facilities: []Facility{{Node: 3, Capacity: 1}},
		K:          1,
	}
	if _, err := in.EvalObjective([]int{0}); err == nil {
		t.Fatal("unreachable assignment accepted")
	}
}

func TestRoundTripSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		b := graph.NewBuilder(n, false)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
			ys[i] = rng.Float64() * 1000
		}
		withCoords := trial%2 == 0
		if withCoords {
			b.SetCoords(xs, ys)
		}
		for i := 1; i < n; i++ {
			b.AddEdge(int32(rng.Intn(i)), int32(i), 1+rng.Int63n(99))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		in := &Instance{G: g, K: rng.Intn(5)}
		for i := 0; i < 1+rng.Intn(8); i++ {
			in.Customers = append(in.Customers, int32(rng.Intn(n)))
		}
		perm := rng.Perm(n)
		for i := 0; i < 1+rng.Intn(5); i++ {
			in.Facilities = append(in.Facilities, Facility{Node: int32(perm[i]), Capacity: rng.Intn(10)})
		}

		var buf bytes.Buffer
		if err := WriteInstance(&buf, in); err != nil {
			t.Fatal(err)
		}
		got, err := ReadInstance(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.K != in.K || got.M() != in.M() || got.L() != in.L() {
			t.Fatalf("round-trip changed sizes")
		}
		if got.G.N() != in.G.N() || got.G.M() != in.G.M() {
			t.Fatalf("round-trip changed graph: %d/%d vs %d/%d", got.G.N(), got.G.M(), in.G.N(), in.G.M())
		}
		for i := range in.Customers {
			if got.Customers[i] != in.Customers[i] {
				t.Fatal("customers differ")
			}
		}
		for i := range in.Facilities {
			if got.Facilities[i] != in.Facilities[i] {
				t.Fatal("facilities differ")
			}
		}
		if withCoords {
			if !got.G.HasCoords() {
				t.Fatal("coords lost")
			}
			for v := int32(0); v < int32(n); v++ {
				x1, y1 := in.G.Coord(v)
				x2, y2 := got.G.Coord(v)
				if x1 != x2 || y1 != y2 {
					t.Fatal("coords differ")
				}
			}
		}
		// Shortest paths must agree (the graph is semantically identical).
		src := int32(rng.Intn(n))
		if !slices.Equal(must(in.G.DijkstraCtx(ctx, src)), must(got.G.DijkstraCtx(ctx, src))) {
			t.Fatal("distance mismatch after round trip")
		}
	}
}

func TestReadInstanceRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"mcfs 2\n",
		"mcfs 1\ngraph x\n",
		"mcfs 1\ngraph 2 1 0 0\n0 1 5\ncustomers 1\n7\nfacilities 0\nk 0\n",    // customer out of range
		"mcfs 1\ngraph 2 1 0 0\n0 1 5\ncustomers 0\nfacilities 1\n0 -2\nk 1\n", // negative capacity
	}
	for i, s := range bad {
		if _, err := ReadInstance(strings.NewReader(s)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestReadInstanceComments(t *testing.T) {
	src := "# comment\nmcfs 1\n# another\ngraph 2 1 0 0\n0 1 5\ncustomers 1\n0\nfacilities 1\n1 3\nk 1\n"
	in, err := ReadInstance(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.M() != 1 || in.L() != 1 || in.K != 1 {
		t.Fatal("comment handling broke parse")
	}
}
