package graph

import (
	"context"
	"fmt"
	"math/rand"

	"mcfs/internal/pq"
)

// ALT is a point-to-point shortest-path oracle using A* with landmark
// lower bounds (the classic ALT technique): after preprocessing one
// Dijkstra per landmark, queries explore a fraction of what plain
// Dijkstra scans, with exact results. Useful for ad-hoc distance queries
// against solved instances (e.g., auditing individual customer trips).
//
// Landmarks are chosen by farthest-point selection. The oracle supports
// undirected graphs (where d(L,v) bounds both directions); constructing
// one over a directed graph returns an error.
//
// An ALT instance reuses internal scratch space between queries and is
// therefore not safe for concurrent use; Clone one per goroutine. Clones
// share the (immutable) preprocessed landmark tables, so cloning is
// cheap relative to NewALT.
type ALT struct {
	g         *Graph
	landmarks []int32
	dist      [][]int64 // per landmark: distances to every node

	// query scratch, epoch-stamped
	d     []int64
	stamp []int32
	epoch int32
	heap  *pq.DenseHeap

	scanned int // nodes settled by the last query (diagnostics)
}

// NewALT preprocesses an ALT oracle with the given number of landmarks
// (clamped to [1, N]). The seed picks the initial landmark.
func NewALT(g *Graph, numLandmarks int, seed int64) (*ALT, error) {
	if g.Directed() {
		return nil, fmt.Errorf("graph: ALT supports undirected graphs only")
	}
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("graph: ALT needs a nonempty graph")
	}
	if numLandmarks < 1 {
		numLandmarks = 1
	}
	if numLandmarks > n {
		numLandmarks = n
	}
	a := &ALT{
		g:     g,
		d:     make([]int64, n),
		stamp: make([]int32, n),
		heap:  pq.NewDense(n),
	}
	rng := rand.New(rand.NewSource(seed))
	next := int32(rng.Intn(n))
	for {
		d, err := g.DijkstraCtx(context.Background(), next)
		if err != nil {
			return nil, err
		}
		a.landmarks = append(a.landmarks, next)
		a.dist = append(a.dist, d)
		if len(a.landmarks) == numLandmarks {
			break
		}
		// Farthest point from the current landmark set (finite distances
		// only, so every landmark stays within reach of the first's
		// component; unreachable components fall back to h = 0).
		best, bestD := int32(-1), int64(-1)
		for v := 0; v < n; v++ {
			min := Inf
			for _, dl := range a.dist {
				if dl[v] < min {
					min = dl[v]
				}
			}
			if min < Inf && min > bestD {
				best, bestD = int32(v), min
			}
		}
		if best < 0 || bestD == 0 {
			break // graph exhausted (fewer distinct positions than requested)
		}
		next = best
	}
	return a, nil
}

// Clone returns an independent oracle for use by another goroutine: the
// preprocessed landmark distance tables are shared read-only (no extra
// Dijkstra runs), only the per-query scratch space is fresh.
func (a *ALT) Clone() *ALT {
	n := a.g.N()
	return &ALT{
		g:         a.g,
		landmarks: a.landmarks,
		dist:      a.dist,
		d:         make([]int64, n),
		stamp:     make([]int32, n),
		heap:      pq.NewDense(n),
	}
}

// Landmarks returns the chosen landmark nodes.
func (a *ALT) Landmarks() []int32 { return append([]int32(nil), a.landmarks...) }

// Scanned reports how many nodes the last Distance call settled.
func (a *ALT) Scanned() int { return a.scanned }

// h returns the admissible landmark lower bound on dist(v, t).
func (a *ALT) h(v, t int32) int64 {
	var best int64
	for _, dl := range a.dist {
		dv, dt := dl[v], dl[t]
		if dv >= Inf || dt >= Inf {
			continue
		}
		diff := dv - dt
		if diff < 0 {
			diff = -diff
		}
		if diff > best {
			best = diff
		}
	}
	return best
}

// Distance returns the exact shortest-path distance from s to t (Inf
// when disconnected), using A* guided by the landmark heuristic.
func (a *ALT) Distance(s, t int32) int64 {
	if s == t {
		a.scanned = 0
		return 0
	}
	a.epoch++
	a.scanned = 0
	h := a.heap
	h.Reset()
	a.d[s] = 0
	a.stamp[s] = a.epoch
	h.Push(s, a.h(s, t))
	for h.Len() > 0 {
		v, _ := h.PopMin()
		if v == t {
			return a.d[v]
		}
		a.scanned++
		dv := a.d[v]
		a.g.Neighbors(v, func(u int32, w int64) bool {
			nd := dv + w
			if a.stamp[u] != a.epoch || nd < a.d[u] {
				a.stamp[u] = a.epoch
				a.d[u] = nd
				h.Push(u, nd+a.h(u, t))
			}
			return true
		})
	}
	return Inf
}
