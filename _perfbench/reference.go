package main

import (
	"container/heap"
	"fmt"
	"math/rand"
	"os"
)

// The reference kernel is fixed work, owned by the benchmark and never by
// the program it measures, that gauges how fast the host runs code like
// the program's at the moment. Its CPU time is sampled across every run,
// and the end-to-end times are scaled by refNominalMs over the median
// sample, so they read as CPU milliseconds on a host where the kernel
// takes refNominalMs.
//
// On a shared virtual machine the CPU time of one WMA solve moved 1.24
// times between 30-second windows of one process and 1.45 times between
// processes, with identical work counters. The kernel's CPU time moved
// with it: solve over kernel spread 0.025 of its median over the windows
// where the solve alone spread 0.135. An integer loop and a random-access
// array scan tracked it far worse (0.11), so the kernel does what the
// program does most: Dijkstra searches that pop a binary heap, look up
// and fill a hash map, and allocate on every push. README.md has the
// figures.
const (
	refNodes     = 2500
	refDegree    = 3 // edges drawn per node, each added in both directions
	refSources   = 10
	refGraphSeed = 7
	refNominalMs = 20.0
	refSamples   = 5 // kernel runs after each serve epoch, and in a traced run
)

type refEdge struct {
	to int32
	w  int64
}

type refItem struct {
	node int32
	dist int64
}

type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// reference holds the kernel's graph and the CPU times of its runs.
type reference struct {
	adj     [][]refEdge
	samples []float64 // CPU ms per kernel run
}

// newReference builds the kernel's graph, the same on every run: a
// random multigraph of refNodes nodes with weights 1 to 100.
func newReference() *reference {
	rng := rand.New(rand.NewSource(refGraphSeed))
	adj := make([][]refEdge, refNodes)
	for i := range adj {
		for j := 0; j < refDegree; j++ {
			to, w := int32(rng.Intn(refNodes)), int64(1+rng.Intn(100))
			adj[i] = append(adj[i], refEdge{to, w})
			adj[to] = append(adj[to], refEdge{int32(i), w})
		}
	}
	return &reference{adj: adj}
}

// refSink keeps the kernel's result alive, so the compiler cannot drop
// the work.
var refSink int64

// sample runs the kernel once and records its CPU time.
func (r *reference) sample() {
	start := cpuNow()
	var sum int64
	for src := int32(0); src < refSources; src++ {
		dist := make(map[int32]int64)
		h := &refHeap{{src, 0}}
		for h.Len() > 0 {
			it := heap.Pop(h).(refItem)
			if _, done := dist[it.node]; done {
				continue
			}
			dist[it.node] = it.dist
			sum += it.dist
			for _, e := range r.adj[it.node] {
				if _, done := dist[e.to]; !done {
					heap.Push(h, refItem{e.to, it.dist + e.w})
				}
			}
		}
	}
	refSink += sum
	r.samples = append(r.samples, ms(cpuNow()-start))
}

// ms is the median kernel CPU time in milliseconds.
func (r *reference) ms() float64 { return percentile(r.samples, 0.5) }

// scale converts a CPU time measured in this run to reference-host
// time: multiply a duration by it, divide a rate by it.
func (r *reference) scale() float64 { return ratio(refNominalMs, r.ms()) }

// report prints the kernel's figures on standard error, so that a reader
// can tell how fast the host ran and by how much the times were scaled.
func (r *reference) report() {
	fmt.Fprintf(os.Stderr, "perfbench: reference kernel %.3f ms CPU (median of %d runs); times scaled by %.4f\n",
		r.ms(), len(r.samples), r.scale())
}

// hostSpeed is the median CPU time of refSamples kernel runs: the traced
// run's record of how fast the host was while it ran.
func hostSpeed() float64 {
	r := newReference()
	for i := 0; i < refSamples; i++ {
		r.sample()
	}
	return r.ms()
}
