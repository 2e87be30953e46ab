package core_test

import (
	"context"
	"testing"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/graph"
	"mcfs/internal/solver"
)

// TestPaperWorkedExample rebuilds the network behind the paper's §IV-B
// walkthrough (Table II adjacency list; k = 2, uniform capacity c = 2).
// The paper's WMA run ends with facilities b2 and b6 covering all four
// customers at objective 16. The distances of Table II are encoded as
// direct edges; node ids: a1..a4 = 0..3, b1..b6 = 4..9.
func TestPaperWorkedExample(t *testing.T) {
	const (
		a1, a2, a3, a4 = 0, 1, 2, 3
		b1, b2, b3     = 4, 5, 6
		b4, b5, b6     = 7, 8, 9
	)
	b := graph.NewBuilder(10, false)
	// Table II rows (customer: three nearest facilities with distances).
	b.AddEdge(a1, b4, 1).AddEdge(a1, b2, 4).AddEdge(a1, b5, 9)
	b.AddEdge(a2, b5, 1).AddEdge(a2, b6, 2).AddEdge(a2, b3, 9)
	b.AddEdge(a3, b1, 1).AddEdge(a3, b2, 4).AddEdge(a3, b4, 9)
	b.AddEdge(a4, b3, 1).AddEdge(a4, b2, 5).AddEdge(a4, b6, 6)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &data.Instance{
		G:         g,
		Customers: []int32{a1, a2, a3, a4},
		Facilities: []data.Facility{
			{Node: b1, Capacity: 2}, {Node: b2, Capacity: 2}, {Node: b3, Capacity: 2},
			{Node: b4, Capacity: 2}, {Node: b5, Capacity: 2}, {Node: b6, Capacity: 2},
		},
		K: 2,
	}

	opt, err := solver.ExhaustiveCtx(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.SolveCtx(context.Background(), inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	// The paper's run reaches 16; WMA must do no worse, and never beat
	// the proven optimum.
	if sol.Objective > 16 {
		t.Fatalf("WMA objective %d, paper's walkthrough reaches 16", sol.Objective)
	}
	if sol.Objective < opt.Objective {
		t.Fatalf("WMA %d beats proven optimum %d", sol.Objective, opt.Objective)
	}
	t.Logf("WMA=%d optimal=%d selected=%v", sol.Objective, opt.Objective, sol.Selected)
}
