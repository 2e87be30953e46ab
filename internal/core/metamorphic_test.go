// Metamorphic cross-solver tests: relations that must hold between the
// WMA heuristic and the exact solver on any instance, and under
// solution-preserving transformations of the instance. Seeds are fixed
// so CI is deterministic; edge weights are drawn from a wide range so
// distinct paths almost surely have distinct costs and tie-breaking
// cannot blur the relations.
package core_test

import (
	"context"
	"math/rand"
	"testing"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/graph"
	"mcfs/internal/solver"
)

// randomFeasibleInstance generates a small connected instance (l and K
// sized so exhaustive enumeration stays trivial) and retries until it is
// feasible under the drawn capacities.
func randomFeasibleInstance(t *testing.T, rng *rand.Rand) *data.Instance {
	t.Helper()
	for try := 0; try < 100; try++ {
		m := 2 + rng.Intn(5)
		l := 2 + rng.Intn(5)
		n := m + l + 5 + rng.Intn(20)
		b := graph.NewBuilder(n, false)
		for i := 1; i < n; i++ {
			b.AddEdge(int32(rng.Intn(i)), int32(i), 1+rng.Int63n(1<<40))
		}
		for e := 0; e < n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(int32(u), int32(v), 1+rng.Int63n(1<<40))
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(n)
		custs := make([]int32, m)
		for i := range custs {
			custs[i] = int32(perm[i])
		}
		facs := make([]data.Facility, l)
		for j := range facs {
			facs[j] = data.Facility{Node: int32(perm[m+j]), Capacity: 1 + rng.Intn(3)}
		}
		inst := &data.Instance{G: g, Customers: custs, Facilities: facs, K: 1 + rng.Intn(l)}
		if ok, _ := inst.Feasible(); ok {
			return inst
		}
	}
	t.Fatal("no feasible instance in 100 draws")
	return nil
}

// relabelInstance applies a node permutation to the whole instance: the
// graph's edges, the customer locations, and the facility nodes. The
// result is the same network under different ids, so every solver
// objective must be unchanged.
func relabelInstance(t *testing.T, inst *data.Instance, perm []int) *data.Instance {
	t.Helper()
	g := inst.G
	b := graph.NewBuilder(g.N(), false)
	for v := int32(0); v < int32(g.N()); v++ {
		g.Neighbors(v, func(to int32, w int64) bool {
			if v < to {
				b.AddEdge(int32(perm[v]), int32(perm[to]), w)
			}
			return true
		})
	}
	rg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	custs := make([]int32, len(inst.Customers))
	for i, c := range inst.Customers {
		custs[i] = int32(perm[c])
	}
	facs := make([]data.Facility, len(inst.Facilities))
	for j, f := range inst.Facilities {
		facs[j] = data.Facility{Node: int32(perm[f.Node]), Capacity: f.Capacity}
	}
	return &data.Instance{G: rg, Customers: custs, Facilities: facs, K: inst.K}
}

// TestWMANeverBeatsExact: the heuristic's objective is bounded below by
// the exhaustive optimum, and both solutions verify against the
// instance. A WMA objective below the "optimum" means the exact solver
// is broken; an unverifiable solution means the solver lied about
// feasibility.
func TestWMANeverBeatsExact(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := randomFeasibleInstance(t, rng)
		wma, err := core.SolveCtx(context.Background(), inst, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: WMA failed on a feasible instance: %v", seed, err)
		}
		if _, err := inst.CheckSolution(wma); err != nil {
			t.Fatalf("seed %d: WMA solution does not verify: %v", seed, err)
		}
		exact, err := solver.ExhaustiveCtx(context.Background(), inst, 0)
		if err != nil {
			t.Fatalf("seed %d: exhaustive failed: %v", seed, err)
		}
		if _, err := inst.CheckSolution(exact); err != nil {
			t.Fatalf("seed %d: exhaustive solution does not verify: %v", seed, err)
		}
		if wma.Objective < exact.Objective {
			t.Errorf("seed %d: WMA objective %d below the proven optimum %d",
				seed, wma.Objective, exact.Objective)
		}
	}
}

// TestRelabelInvariance: permuting node ids changes nothing the solvers
// may depend on, so both the WMA and the exhaustive objective must be
// identical on the relabeled instance — any drift means a solver reads
// node ids as more than opaque labels.
func TestRelabelInvariance(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := randomFeasibleInstance(t, rng)
		perm := rng.Perm(inst.G.N())
		rel := relabelInstance(t, inst, perm)

		base, err := core.SolveCtx(context.Background(), inst, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: WMA failed: %v", seed, err)
		}
		relSol, err := core.SolveCtx(context.Background(), rel, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: WMA failed on relabeled instance: %v", seed, err)
		}
		if _, err := rel.CheckSolution(relSol); err != nil {
			t.Fatalf("seed %d: relabeled WMA solution does not verify: %v", seed, err)
		}
		if base.Objective != relSol.Objective {
			t.Errorf("seed %d: WMA objective changed under relabeling: %d vs %d",
				seed, base.Objective, relSol.Objective)
		}

		exBase, err := solver.ExhaustiveCtx(context.Background(), inst, 0)
		if err != nil {
			t.Fatalf("seed %d: exhaustive failed: %v", seed, err)
		}
		exRel, err := solver.ExhaustiveCtx(context.Background(), rel, 0)
		if err != nil {
			t.Fatalf("seed %d: exhaustive failed on relabeled instance: %v", seed, err)
		}
		if exBase.Objective != exRel.Objective {
			t.Errorf("seed %d: exact objective changed under relabeling: %d vs %d",
				seed, exBase.Objective, exRel.Objective)
		}
	}
}
