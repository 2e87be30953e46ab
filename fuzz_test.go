package mcfs_test

import (
	"context"
	"io"
	"testing"

	"mcfs"
)

// fuzzReader hands out a fuzz input one bounded number at a time,
// reading zeros past its end.
type fuzzReader []byte

// intn returns the next byte modulo n (n > 0).
func (r *fuzzReader) intn(n int) int {
	if len(*r) == 0 {
		return 0
	}
	v := int((*r)[0]) % n
	*r = (*r)[1:]
	return v
}

// The flag bits of a fuzz shape's first byte.
const (
	fuzzDirected      = 1 << iota // the graph is directed
	fuzzCoords                    // the graph carries coordinates
	fuzzNoSolution                // the solution is nil
	fuzzTrueObjective             // the solution reports its true objective (else 0)
)

// fuzzCase is what FuzzPublicAPI decodes from its input.
type fuzzCase struct {
	inst      *mcfs.Instance
	selection []int
	sol       *mcfs.Solution
	arrival   int32 // a node for the Reallocator's arrival
	departure int   // a handle for its departure
}

// decodeFuzzCase reads a shape: the flags, a graph of at most 8 nodes
// (node count, edge count, then from, to and weight−1 per edge, then x
// and y per node when it has coordinates), k+1, the customer count and
// node+1 per customer, the facility count and node+1 and capacity+1 per
// facility, the arrival's node+1 and the departure's handle+1. Nodes,
// capacities, k and handles reach one past each end of their ranges, so
// malformed instances occur too. Each byte of selection and assignment
// is one signed index, so wild indexes (9, −3) occur beside valid ones.
func decodeFuzzCase(t *testing.T, shape, selection, assignment []byte) fuzzCase {
	r := fuzzReader(shape)
	flags := r.intn(16)
	n := r.intn(9)
	b := mcfs.NewGraphBuilder(n, flags&fuzzDirected != 0)
	for e := r.intn(13); e > 0 && n > 0; e-- {
		b.AddEdge(int32(r.intn(n)), int32(r.intn(n)), int64(1+r.intn(9)))
	}
	if flags&fuzzCoords != 0 {
		x, y := make([]float64, n), make([]float64, n)
		for v := range x {
			x[v], y[v] = float64(r.intn(16)), float64(r.intn(16))
		}
		b.SetCoords(x, y)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("decoded graph rejected: %v", err)
	}
	inst := &mcfs.Instance{G: g, K: r.intn(7) - 1}
	for i := r.intn(7); i > 0; i-- {
		inst.Customers = append(inst.Customers, int32(r.intn(n+2)-1))
	}
	for j := r.intn(7); j > 0; j-- {
		inst.Facilities = append(inst.Facilities, mcfs.Facility{Node: int32(r.intn(n+2) - 1), Capacity: r.intn(6) - 1})
	}
	c := fuzzCase{
		inst:      inst,
		selection: signed(selection),
		arrival:   int32(r.intn(n+2) - 1),
		departure: r.intn(inst.M()+3) - 1,
	}
	if flags&fuzzNoSolution == 0 {
		c.sol = &mcfs.Solution{Selected: c.selection, Assignment: signed(assignment)}
		if flags&fuzzTrueObjective != 0 && inst.Validate() == nil {
			c.sol.Objective, _ = inst.EvalObjective(c.sol.Assignment)
		}
	}
	return c
}

// signed reads each byte as one int8.
func signed(b []byte) []int {
	out := make([]int, len(b))
	for i, v := range b {
		out[i] = int(int8(v))
	}
	return out
}

// sixNodes is the path 0–1–2–3–4–5 of unit roads with coordinates,
// customers at nodes 0 and 5, facilities at nodes 1 and 4 of capacity
// 2, and k = 2; its arrival is at node 0 and its departure handle 0.
var sixNodes = []byte{
	fuzzCoords | fuzzTrueObjective, 6,
	5, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0,
	0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0,
	3,
	2, 1, 6,
	2, 2, 3, 5, 3,
	1, 1,
}

// FuzzPublicAPI decodes a small instance, a selection and a solution,
// and calls every exported function that takes them. Each call returns
// an error or a result that CheckSolution accepts, and none panics.
// RenderSVG, WriteGeoJSON and WriteInstance succeed only on what
// Instance.Validate and CheckSolution accept.
func FuzzPublicAPI(f *testing.F) {
	// The empty graph (LargestComponent once panicked on it) as an
	// instance with k = 0.
	f.Add([]byte{0, 0, 0, 1}, []byte{}, []byte{})
	// A valid solution of sixNodes, then the malformed ones RenderSVG and
	// WriteGeoJSON once panicked on or accepted: an assignment index past
	// ℓ, a negative one, an assignment shorter than m, and a selection
	// holding −1.
	f.Add(sixNodes, []byte{0, 1}, []byte{0, 1})
	f.Add(sixNodes, []byte{0, 1}, []byte{9, 0})
	f.Add(sixNodes, []byte{0, 1}, []byte{0xfd, 0})
	f.Add(sixNodes, []byte{0, 1}, []byte{0})
	f.Add(sixNodes, []byte{0xff}, []byte{0, 1})
	f.Fuzz(func(t *testing.T, shape, selection, assignment []byte) {
		c := decodeFuzzCase(t, shape, selection, assignment)
		inst, sol := c.inst, c.sol
		ctx := context.Background()
		accepted := func(name string, in *mcfs.Instance, got *mcfs.Solution, err error) {
			t.Helper()
			if err != nil {
				return
			}
			if _, err := in.CheckSolution(got); err != nil {
				t.Fatalf("%s returned a solution CheckSolution rejects: %v", name, err)
			}
		}

		for _, a := range mcfs.Algorithms() {
			got, _, err := a.Solve(ctx, inst, mcfs.WithSeed(1))
			accepted("Algorithm.Solve/"+a.String(), inst, got, err)
		}
		// AssignToSelection does not hold the selection to the budget.
		relaxed := *inst
		relaxed.K = max(inst.K, len(c.selection))
		got, err := mcfs.AssignToSelection(inst, c.selection)
		accepted("AssignToSelection", &relaxed, got, err)
		polished, _, err := mcfs.Improve(inst, sol)
		accepted("Improve", inst, polished, err)
		if err == nil && polished.Objective > sol.Objective {
			t.Fatalf("Improve worsened %d to %d", sol.Objective, polished.Objective)
		}

		valid := inst.Validate() == nil
		drawable := valid
		if valid && sol != nil {
			_, err := inst.CheckSolution(sol)
			drawable = err == nil
		}
		if err := mcfs.RenderSVG(io.Discard, inst, sol); err == nil && !drawable {
			t.Fatal("RenderSVG accepted a malformed instance or solution")
		}
		if err := mcfs.WriteGeoJSON(io.Discard, inst, sol); err == nil && !drawable {
			t.Fatal("WriteGeoJSON accepted a malformed instance or solution")
		}
		if err := mcfs.WriteInstance(io.Discard, inst); err == nil && !valid {
			t.Fatal("WriteInstance accepted a malformed instance")
		}

		if r, err := mcfs.NewReallocator(inst, 0); err == nil {
			// Each operation may fail; a failed one leaves the state it
			// found, which the Solution check below covers either way.
			_, _ = r.AddCustomer(c.arrival)
			_ = r.RemoveCustomer(c.departure)
			_ = r.AdoptSelection(c.selection)
			in, got, err := r.Solution()
			accepted("Reallocator", in, got, err)
		}

		for _, v := range mcfs.LargestComponent(inst.G) {
			if v < 0 || int(v) >= inst.G.N() {
				t.Fatalf("LargestComponent returned node %d of %d", v, inst.G.N())
			}
		}
	})
}
