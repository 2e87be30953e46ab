package bench

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// TestPoolOrderAndBound checks the two pool invariants everything else
// rests on: rows replay in cell-submission order regardless of the order
// cells finish in, and no more than Workers cells run at once.
func TestPoolOrderAndBound(t *testing.T) {
	const cells, workers = 40, 3
	var running, peak int32
	p := newPool(Config{Workers: workers})
	for i := 0; i < cells; i++ {
		p.cell(func(emit func(Row)) error {
			cur := atomic.AddInt32(&running, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if cur <= old || atomic.CompareAndSwapInt32(&peak, old, cur) {
					break
				}
			}
			// Emit two rows so multi-row cells stay contiguous in the output.
			emit(Row{Exp: "test", XVal: float64(i)})
			emit(Row{Exp: "test", XVal: float64(i) + 0.5})
			atomic.AddInt32(&running, -1)
			return nil
		})
	}
	var got []float64
	if err := p.drain(func(r Row) { got = append(got, r.XVal) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*cells {
		t.Fatalf("rows = %d, want %d", len(got), 2*cells)
	}
	for i := 0; i < cells; i++ {
		if got[2*i] != float64(i) || got[2*i+1] != float64(i)+0.5 {
			t.Fatalf("row order broken at cell %d: %v %v", i, got[2*i], got[2*i+1])
		}
	}
	if peak > workers {
		t.Fatalf("peak concurrency %d exceeds Workers=%d", peak, workers)
	}
}

// TestPoolErrorSemantics: the first error in submission order wins, and
// rows of cells after the failed one are dropped — exactly what a serial
// runner aborting mid-loop would have produced.
func TestPoolErrorSemantics(t *testing.T) {
	boom := errors.New("boom")
	p := newPool(Config{Workers: 4})
	p.cell(func(emit func(Row)) error { emit(Row{XVal: 0}); return nil })
	p.cell(func(emit func(Row)) error { return boom })
	p.cell(func(emit func(Row)) error { emit(Row{XVal: 2}); return nil })
	var got []float64
	err := p.drain(func(r Row) { got = append(got, r.XVal) })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("rows = %v, want only the pre-error cell's row", got)
	}
}

// TestParallelDeterminism asserts the tentpole guarantee: a Workers=4
// run emits the identical row stream to a serial run for the same seed,
// across two experiment ids (a size sweep and a k sweep). Runtime is
// wall-clock and excluded, exactly as mcfsbench -notimes excludes it.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments twice")
	}
	base := Config{Scale: 0.02, Seed: 7, SkipExact: true}
	collect := func(cfg Config) []string {
		t.Helper()
		var rows []string
		for _, id := range []string{"F6a", "F7a"} {
			err := Run(id, cfg, func(r Row) {
				r.Runtime = 0
				rows = append(rows, fmt.Sprintf("%+v", r))
			})
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", id, cfg.Workers, err)
			}
		}
		return rows
	}
	serial := collect(Config{Scale: base.Scale, Seed: base.Seed, SkipExact: true, Workers: 1})
	parallel := collect(Config{Scale: base.Scale, Seed: base.Seed, SkipExact: true, Workers: 4})
	if len(serial) != len(parallel) {
		t.Fatalf("row count differs: serial %d vs parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d differs:\nserial:   %s\nparallel: %s", i, serial[i], parallel[i])
		}
	}
}

// TestCellsOwnTheirInstance pins how cells share nothing they can write:
// a point's builder runs once, every call hands out a new instance with
// its own Customers and Facilities over the same graph, and a write
// through one copy is not seen by the next. The graph is the one value
// cells share; that holds only while graph.Graph exports no field.
func TestCellsOwnTheirInstance(t *testing.T) {
	g, err := graph.NewBuilder(3, false).AddEdge(0, 1, 1).AddEdge(1, 2, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	get := perCell(func() (*data.Instance, error) {
		builds++
		return &data.Instance{
			G:          g,
			Customers:  []int32{0, 1},
			Facilities: []data.Facility{{Node: 2, Capacity: 2}},
			K:          1,
		}, nil
	})
	first, err := get()
	if err != nil {
		t.Fatal(err)
	}
	first.K = 9
	first.Customers[0] = 2
	first.Facilities[0].Capacity = 7
	second, err := get()
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Errorf("builder ran %d times, want once", builds)
	}
	if first == second || &first.Customers[0] == &second.Customers[0] || &first.Facilities[0] == &second.Facilities[0] {
		t.Fatal("two calls share an instance record or array")
	}
	if second.G != g {
		t.Error("a copy does not keep the built graph")
	}
	if second.K != 1 || second.Customers[0] != 0 || second.Facilities[0].Capacity != 2 {
		t.Errorf("writes through one copy reached the next: K=%d customer=%d capacity=%d",
			second.K, second.Customers[0], second.Facilities[0].Capacity)
	}
	gt := reflect.TypeOf(graph.Graph{})
	for i := 0; i < gt.NumField(); i++ {
		if f := gt.Field(i); f.IsExported() {
			t.Errorf("graph.Graph exports field %s, which any cell could write through the shared graph", f.Name)
		}
	}
}
