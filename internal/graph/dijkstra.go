package graph

import (
	"context"

	"mcfs/internal/obs"
)

// checkEvery is the number of heap pops a graph search performs between
// context polls. Cooperative cancellation must be prompt without showing
// up in profiles: one atomic-free counter test per pop plus one ctx.Err
// call every 4096 pops is unmeasurable against the relaxation work of a
// road network, yet bounds the cancellation latency to a few thousand
// edge scans.
const checkEvery = 4096

// DijkstraCtx computes single-source shortest-path distances from src to
// all nodes, returning a dense distance slice with Inf for unreachable
// nodes. ctx is polled every checkEvery heap pops; on cancellation the
// search stops and returns nil with ctx.Err().
func (g *Graph) DijkstraCtx(ctx context.Context, src int32) ([]int64, error) {
	dist := make([]int64, g.N())
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	h := g.newDenseQueue()
	h.Push(src, 0)
	pops, relax := 0, 0
	if rec := obs.From(ctx); rec != nil {
		defer func() { flushSearchCounters(rec, h, int64(pops), int64(relax)) }()
	}
	for h.Len() > 0 {
		if pops++; pops&(checkEvery-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		v, d := h.PopMin()
		if d > dist[v] {
			continue
		}
		for i := g.off[v]; i < g.off[v+1]; i++ {
			u, nd := g.dst[i], d+g.w[i]
			if nd < dist[u] {
				dist[u] = nd
				relax++
				h.Push(u, nd)
			}
		}
	}
	return dist, nil
}

// MultiSourceDijkstraCtx computes, for every node, the distance to its
// nearest source and that source's index in sources. Nodes unreachable
// from all sources get distance Inf and owner -1. It implements network
// Voronoi partitioning (ties go to the source settled first, i.e., the
// lowest-distance one discovered earliest). ctx is polled every
// checkEvery heap pops; on cancellation it returns nils and ctx.Err().
func (g *Graph) MultiSourceDijkstraCtx(ctx context.Context, sources []int32) (dist []int64, owner []int32, err error) {
	n := g.N()
	dist = make([]int64, n)
	owner = make([]int32, n)
	for i := range dist {
		dist[i] = Inf
		owner[i] = -1
	}
	h := g.newDenseQueue()
	for idx, s := range sources {
		if dist[s] == 0 {
			continue // duplicate source node; first one wins
		}
		dist[s] = 0
		owner[s] = int32(idx)
		h.Push(s, 0)
	}
	pops, relax := 0, 0
	if rec := obs.From(ctx); rec != nil {
		defer func() { flushSearchCounters(rec, h, int64(pops), int64(relax)) }()
	}
	for h.Len() > 0 {
		if pops++; pops&(checkEvery-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		v, d := h.PopMin()
		if d > dist[v] {
			continue
		}
		for i := g.off[v]; i < g.off[v+1]; i++ {
			u, nd := g.dst[i], d+g.w[i]
			if nd < dist[u] {
				dist[u] = nd
				owner[u] = owner[v]
				relax++
				h.Push(u, nd)
			}
		}
	}
	return dist, owner, nil
}
