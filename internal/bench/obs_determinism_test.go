package bench

// These tests pin the observability contract from DESIGN.md §13:
// attaching an obs.Recorder to a solve is strictly passive. The traced
// and untraced runs of every instrumented layer — WMA, the exact
// branch & bound, and the Reallocator — must produce byte-identical
// output on a city preset. Solutions are compared through their JSON
// encodings so any new field joins the comparison automatically.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"mcfs"
	"mcfs/internal/data"
	"mcfs/internal/obs"
)

// obsTestInstance is the quick aalborg workload the perf suite also
// uses (shrunk m/k so the exact solver finishes in test time).
func obsTestInstance(t *testing.T, m, k, c int) *data.Instance {
	t.Helper()
	inst, err := cityInstance("aalborg", Config{Scale: 0.2, Seed: 1}.normalized(), m, k, c)
	if err != nil {
		t.Fatalf("cityInstance: %v", err)
	}
	if ok, unreachable := inst.Feasible(); !ok {
		t.Fatalf("instance infeasible: %d unreachable customers", len(unreachable))
	}
	return inst
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// solveTwice runs algo on inst without and with a recorder and fails
// unless the two solutions serialize to the same bytes. It returns the
// recorder so callers can assert the traced run actually recorded work
// (a vacuously-passing diff would pin nothing).
func solveTwice(t *testing.T, algo mcfs.Algorithm, inst *data.Instance, opts ...mcfs.Option) *obs.Recorder {
	t.Helper()
	plain, _, err := algo.Solve(context.Background(), inst, opts...)
	if err != nil {
		t.Fatalf("%s untraced: %v", algo, err)
	}
	rec := obs.New()
	traced, _, err := algo.Solve(obs.WithRecorder(context.Background(), rec), inst, opts...)
	if err != nil {
		t.Fatalf("%s traced: %v", algo, err)
	}
	if a, b := encode(t, plain), encode(t, traced); !bytes.Equal(a, b) {
		t.Fatalf("%s output changed under tracing:\nuntraced %s\ntraced   %s", algo, a, b)
	}
	return rec
}

func TestObsTracedWMAIdentical(t *testing.T) {
	inst := obsTestInstance(t, 128, 13, 20)
	rec := solveTwice(t, mcfs.AlgorithmWMA, inst, mcfs.WithSeed(1))
	// WMA's shortest-path work flows through the SSPA matching layer
	// (the standalone Dijkstra counters belong to the graph entry
	// points, which this workload does not cross).
	for _, c := range []obs.Counter{obs.SSPASearches, obs.WMAIterations, obs.SSPAAugmentingPaths} {
		if rec.Counter(c) == 0 {
			t.Fatalf("traced WMA recorded no %s — the diff pinned nothing", c.Name())
		}
	}
	if len(rec.Spans()) == 0 {
		t.Fatal("traced WMA produced no phase spans")
	}
}

func TestObsTracedExactIdentical(t *testing.T) {
	// The full city candidate pool is hopeless for branch & bound (that
	// is the paper's point); shrink the pool to a tractable enumeration
	// while keeping the real road network underneath.
	inst := obsTestInstance(t, 24, 4, 8)
	stride := len(inst.Facilities) / 12
	if stride < 1 {
		stride = 1
	}
	var pool []data.Facility
	for i := 0; i < len(inst.Facilities) && len(pool) < 12; i += stride {
		f := inst.Facilities[i]
		f.Capacity = 8
		pool = append(pool, f)
	}
	inst.Facilities = pool
	if ok, unreachable := inst.Feasible(); !ok {
		t.Fatalf("shrunk instance infeasible: %d unreachable customers", len(unreachable))
	}
	rec := solveTwice(t, mcfs.AlgorithmExact, inst, mcfs.WithSeed(1))
	if rec.Counter(obs.BnBNodesExpanded) == 0 {
		t.Fatal("traced exact solve expanded no nodes — the diff pinned nothing")
	}
}

// TestObsTracedReallocatorIdentical replays the same churn script —
// arrivals off the candidate pool, then departures — against a traced
// and an untraced Reallocator and requires identical handles,
// objectives, selections, and final assignments at every step.
func TestObsTracedReallocatorIdentical(t *testing.T) {
	inst := obsTestInstance(t, 64, 9, 20)

	type step struct {
		Handle    int
		Objective int64
		Selected  []int
	}
	replay := func(ctx context.Context) ([]step, []byte) {
		r, err := mcfs.NewReallocatorCtx(ctx, inst, 1.5)
		if err != nil {
			t.Fatalf("NewReallocator: %v", err)
		}
		var steps []step
		var handles []int
		for i := 0; i < 24; i++ {
			node := inst.Facilities[(i*37)%len(inst.Facilities)].Node
			h, err := r.AddCustomer(node)
			if err != nil {
				t.Fatalf("AddCustomer(%d): %v", node, err)
			}
			handles = append(handles, h)
			obj, err := r.Objective()
			if err != nil {
				t.Fatalf("Objective after arrival %d: %v", i, err)
			}
			steps = append(steps, step{Handle: h, Objective: obj, Selected: r.Selected()})
		}
		for i := 0; i < len(handles); i += 2 {
			if err := r.RemoveCustomer(handles[i]); err != nil {
				t.Fatalf("RemoveCustomer(%d): %v", handles[i], err)
			}
		}
		asg, err := r.Assignment()
		if err != nil {
			t.Fatalf("Assignment: %v", err)
		}
		return steps, encode(t, asg)
	}

	plainSteps, plainAsg := replay(context.Background())
	rec := obs.New()
	tracedSteps, tracedAsg := replay(obs.WithRecorder(context.Background(), rec))

	if a, b := encode(t, plainSteps), encode(t, tracedSteps); !bytes.Equal(a, b) {
		t.Fatalf("Reallocator churn diverged under tracing:\nuntraced %s\ntraced   %s", a, b)
	}
	if !bytes.Equal(plainAsg, tracedAsg) {
		t.Fatalf("final assignment diverged under tracing:\nuntraced %s\ntraced   %s", plainAsg, tracedAsg)
	}
	if rec.Counter(obs.ReallocFullSolves) == 0 {
		t.Fatal("traced Reallocator recorded no full solves — the diff pinned nothing")
	}
}
