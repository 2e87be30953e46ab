package dynamic

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
	"mcfs/internal/obs"
)

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDepartureFreezeCostsTheBatch pins the copy-on-write publish: a
// batch costs the pages it wrote, not the population. On a line of
// 4,096 customers at random nodes, served by facilities of capacity 9
// every 8 nodes so that many are full, 64 departures each run alone and
// are published by a Freeze, and every view stays held. The median of
// what each departure and its Freeze allocate must stay under 1/20 of
// what one flat Publish of the population allocates, and some
// departures must have moved other customers, whose pages are copied
// too. The median, not the maximum: a repair search larger than any
// before it grows the matcher's reusable search scratch once, an
// amortized cost unrelated to publishing.
func TestDepartureFreezeCostsTheBatch(t *testing.T) {
	const m = 4096
	b := graph.NewBuilder(m, false)
	for v := 0; v+1 < m; v++ {
		b.AddEdge(int32(v), int32(v+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var facs []data.Facility
	var selected []int
	for v := 0; v < m; v += 8 {
		selected = append(selected, len(facs))
		facs = append(facs, data.Facility{Node: int32(v + 3), Capacity: 9})
	}
	rng := rand.New(rand.NewSource(4))
	custs := make([]int32, m)
	for i := range custs {
		custs[i] = int32(rng.Intn(m))
	}
	inst := &data.Instance{G: g, Customers: custs, Facilities: facs, K: len(facs)}
	rec := obs.New()
	r, err := AdoptCtx(obs.WithRecorder(context.Background(), rec), inst, selected, Options{DriftFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	flat := allocated(func() {
		if _, err := r.Publish(); err != nil {
			t.Fatal(err)
		}
	})
	// Hold every view, as readers may.
	views := make([]*View, 1, 65)
	views[0] = r.Freeze()
	var costs []uint64
	moved := 0
	for _, h := range rng.Perm(m)[:64] {
		before := rec.Counter(obs.ReallocReroutedCustomers)
		costs = append(costs, allocated(func() {
			if err := r.RemoveCustomer(h); err != nil {
				t.Fatal(err)
			}
			views = append(views, r.Freeze())
		}))
		if rec.Counter(obs.ReallocReroutedCustomers) > before {
			moved++
		}
	}
	slices.Sort(costs)
	if median := costs[len(costs)/2]; median*20 >= flat {
		t.Fatalf("a departure and its Freeze allocate %d B in the median, a flat Publish of the population %d B: not under 1/20", median, flat)
	}
	if moved == 0 {
		t.Fatal("no departure moved another customer; the test never copied a page beyond the departed one's")
	}
	t.Logf("flat Publish %d B; departure and Freeze %d B median, %d B max; %d of 64 departures moved customers",
		flat, costs[len(costs)/2], costs[len(costs)-1], moved)
}
