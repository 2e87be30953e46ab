package main

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"mcfs"
)

func TestScriptsRepeatForASeed(t *testing.T) {
	pool := []int32{3, 5, 8, 13, 21, 34}
	if a, b := churnScript(7, 500, 40, pool), churnScript(7, 500, 40, pool); !reflect.DeepEqual(a, b) {
		t.Fatal("churnScript gave two streams for one seed")
	}
	if a, b := churnScript(7, 500, 40, pool), churnScript(8, 500, 40, pool); reflect.DeepEqual(a, b) {
		t.Fatal("churnScript ignores its seed")
	}
	if a, b := tideScript(1, 7, 3, 10, 40, pool), tideScript(1, 7, 3, 10, 40, pool); !reflect.DeepEqual(a, b) {
		t.Fatal("tideScript gave two streams for one seed")
	}
	if a, b := tideScript(1, 7, 3, 10, 40, pool), tideScript(1, 8, 3, 10, 40, pool); reflect.DeepEqual(a, b) {
		t.Fatal("tideScript ignores its seed")
	}
}

// TestScriptsNameLiveCustomers replays each script's handle bookkeeping:
// arrivals take the next handle, lookups and departures name only live
// customers, as the server will check, churn stays within one customer
// of its start and a tide ends where it began.
func TestScriptsNameLiveCustomers(t *testing.T) {
	pool := []int32{3, 5, 8, 13, 21, 34}
	const m = 40
	for name, script := range map[string][]request{
		"churn": churnScript(1, 2000, m, pool),
		"tide":  tideScript(1, 2, 4, 30, m, pool),
	} {
		live := map[int]bool{}
		for h := 0; h < m; h++ {
			live[h] = true
		}
		next := m
		for i, r := range script {
			switch r.kind {
			case arrive:
				if !slices.Contains(pool, r.node) || len(r.handles) != 1 || r.handles[0] != next {
					t.Fatalf("%s request %d: arrival %+v, want node from the pool and handle %d", name, i, r, next)
				}
				live[next] = true
				next++
			case assign, depart:
				for _, h := range r.handles {
					if !live[h] {
						t.Fatalf("%s request %d: %v names customer %d, who is not live", name, i, r.kind, h)
					}
					if r.kind == depart {
						delete(live, h)
					}
				}
			}
			if name == "churn" && (len(live) < m-1 || len(live) > m+1) {
				t.Fatalf("churn request %d leaves %d customers, outside %d±1", i, len(live), m)
			}
		}
		if name == "tide" && len(live) != m {
			t.Fatalf("tide ends with %d customers, want the initial %d", len(live), m)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10},
	} {
		if got := percentile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("percentile of an even sample = %v, want 2.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

func TestChecksRejectTamperedObjective(t *testing.T) {
	inst, _, err := tableIV()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mcfs.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSolve(inst, sol, sol.Objective); err != nil {
		t.Fatalf("untouched solution rejected: %v", err)
	}
	tampered := *sol
	tampered.Objective--
	if checkSolve(inst, &tampered, tampered.Objective) == nil {
		t.Error("a solution whose objective understates its cost passed")
	}
	if checkSolve(inst, sol, sol.Objective+1) == nil {
		t.Error("an objective that differs from the recorded one passed")
	}

	r, err := mcfs.NewReallocator(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := r.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPublished(inst, pub); err != nil {
		t.Fatalf("untouched published assignment rejected: %v", err)
	}
	bad := *pub
	bad.Objective--
	if checkPublished(inst, &bad) == nil {
		t.Error("a published objective below the assignment's cost passed")
	}
}

func TestPkgOf(t *testing.T) {
	for name, want := range map[string]string{
		"mcfs/internal/pq.(*Heap[go.shape.int32]).Push": "mcfs/internal/pq",
		"mcfs/internal/graph.(*NNSearcher).advance":     "mcfs/internal/graph",
		"runtime.mallocgc":                              "runtime",
		"main.spin":                                     "main",
	} {
		if got := pkgOf(name); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", name, got, want)
		}
	}
}

var sink int

func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			sink += i ^ sink
		}
	}
}

func TestProfilerBucketsByLeafPackage(t *testing.T) {
	p := &profiler{}
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	spin(400 * time.Millisecond)
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Fatal("no samples in a 400 ms busy loop")
	}
	pkg := pkgOf(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	if s := p.share(pkg); s < 0.5 {
		t.Fatalf("busy loop in package %s got share %.2f of %d samples (%v)", pkg, s, p.total, p.byPkg)
	}
}
