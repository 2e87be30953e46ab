package render

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

func coordInstance(t *testing.T) (*data.Instance, *data.Solution) {
	t.Helper()
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(2, 3, 1)
	b.SetCoords([]float64{0, 10, 20, 30}, []float64{0, 5, 0, 5})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0, 3},
		Facilities: []data.Facility{{Node: 1, Capacity: 1}, {Node: 2, Capacity: 1}},
		K:          2,
	}
	sol := &data.Solution{Selected: []int{0, 1}, Assignment: []int{0, 1}, Objective: 2}
	return inst, sol
}

func TestSVGWellFormed(t *testing.T) {
	inst, sol := coordInstance(t)
	var buf bytes.Buffer
	if err := SVG(&buf, inst, sol); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("output is not a complete SVG document")
	}
	// Two customers (red), one hollow + ... both facilities selected (solid).
	if got := strings.Count(out, `fill="#c8321e"`); got != 2 {
		t.Fatalf("customer circles = %d, want 2", got)
	}
	if got := strings.Count(out, `fill="#1f5fbf"`); got != 2 {
		t.Fatalf("selected facility circles = %d, want 2", got)
	}
	// Assignment links present.
	if !strings.Contains(out, `stroke="#7a5fb5"`) {
		t.Fatal("assignment links missing")
	}
	// Network edges drawn (3 edges).
	if got := strings.Count(out, "<line"); got < 5 {
		t.Fatalf("too few lines: %d", got)
	}
}

func TestSVGWithoutSolution(t *testing.T) {
	inst, _ := coordInstance(t)
	var buf bytes.Buffer
	if err := SVG(&buf, inst, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// No selected facilities: all candidates hollow.
	if strings.Contains(out, `fill="#1f5fbf"`) {
		t.Fatal("solid facility drawn without a solution")
	}
	if !strings.Contains(out, `stroke="#1f5fbf"`) {
		t.Fatal("hollow candidates missing")
	}
}

func TestSVGNoCoords(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1, 1)
	g, _ := b.Build()
	inst := &data.Instance{G: g, Customers: []int32{0}, Facilities: []data.Facility{{Node: 1, Capacity: 1}}, K: 1}
	if err := SVG(&bytes.Buffer{}, inst, nil); err == nil {
		t.Fatal("coordinate-less network accepted")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n -= len(p)
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestSVGWriteErrorPropagates(t *testing.T) {
	inst, sol := coordInstance(t)
	if err := SVG(&failWriter{n: 64}, inst, sol); err == nil {
		t.Fatal("write error swallowed")
	}
}

func noCoordGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
