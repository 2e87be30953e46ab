package core

import (
	"context"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// TestSolveDirectedAsymmetric checks that the matcher's customer→facility
// distances and the independent objective verifier agree on directed
// networks with asymmetric shortest paths.
func TestSolveDirectedAsymmetric(t *testing.T) {
	// 0 →(1) 1 →(1) 2, and an expensive return path 2 →(10) 0.
	// Customer at 0; facility at 2. Forward distance 2, backward 10.
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(2, 0, 10)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0},
		Facilities: []data.Facility{{Node: 2, Capacity: 1}},
		K:          1,
	}
	sol, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 2 {
		t.Fatalf("objective = %d, want customer→facility distance 2", sol.Objective)
	}
}

// TestSolveDirectedChoosesForwardCheapest ensures selection uses forward
// distances: facility A is near in the forward direction, facility B near
// only backward.
func TestSolveDirectedChoosesForwardCheapest(t *testing.T) {
	// Customer 0. Forward: 0→1 (1). Backward-only: 2→0 (1), 0→...→2 via 0→1→2 (1+50).
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1, 1).AddEdge(2, 0, 1).AddEdge(1, 2, 50)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0},
		Facilities: []data.Facility{{Node: 1, Capacity: 1}, {Node: 2, Capacity: 1}},
		K:          1,
	}
	sol, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	if len(sol.Selected) != 1 || sol.Selected[0] != 0 {
		t.Fatalf("selected %v, want the forward-near facility 0", sol.Selected)
	}
	if sol.Objective != 1 {
		t.Fatalf("objective = %d, want 1", sol.Objective)
	}
}
