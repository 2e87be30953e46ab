package graph

import (
	"context"

	"mcfs/internal/obs"
	"mcfs/internal/pq"
)

// SearchScratch is reusable state for the localized searches
// (DijkstraWithinScratchCtx, DijkstraToTargetsScratchCtx) that would
// otherwise allocate a fresh map and frontier queue per call — the
// dominant allocation cost in callers that issue thousands of bounded
// searches per solve (the BRNN attraction loop, objective
// recomputation). It follows the ALT shared-static/private-scratch
// idiom (alt.go): dense per-node arrays validated by an epoch stamp, so
// between searches the reset cost is O(nodes touched), not O(N).
//
// A scratch is bound to the graph that created it and must not be used
// on another graph, nor concurrently; clone one per goroutine instead.
// The results of the last search stay readable (Dist, Each, Visited)
// until the next search reuses the scratch.
type SearchScratch struct {
	g        *Graph
	dist     []int64
	stamp    []int32 // stamp[v] == epoch ⇔ dist[v] is live for this search
	done     []int32 // done[v] == epoch ⇔ v settled (popped final)
	want     []int32 // want[v] == epoch ⇔ v is an unsettled search target
	epoch    int32
	visited  []int32 // touched nodes in discovery order (deterministic)
	frontier pq.Monotone
}

// NewScratch returns a reusable scratch for searches on g. The frontier
// queue implementation is fixed at creation time by the current queue
// mode and g's weight range (see SetQueueMode).
func (g *Graph) NewScratch() *SearchScratch {
	n := g.N()
	return &SearchScratch{
		g:        g,
		dist:     make([]int64, n),
		stamp:    make([]int32, n),
		done:     make([]int32, n),
		want:     make([]int32, n),
		frontier: g.newDenseQueue(),
	}
}

// begin starts a new search epoch, invalidating all previous labels in
// O(touched) time.
func (sc *SearchScratch) begin() {
	sc.frontier.Reset()
	sc.visited = sc.visited[:0]
	sc.epoch++
	if sc.epoch <= 0 { // int32 wrap after ~2B searches: hard reset
		sc.epoch = 1
		for i := range sc.stamp {
			sc.stamp[i] = 0
			sc.done[i] = 0
			sc.want[i] = 0
		}
	}
}

// Dist returns the last search's distance to v and whether v was
// reached (relaxed within the search's bounds).
func (sc *SearchScratch) Dist(v int32) (int64, bool) {
	if sc.stamp[v] != sc.epoch {
		return Inf, false
	}
	return sc.dist[v], true
}

// Visited returns the number of nodes the last search reached.
func (sc *SearchScratch) Visited() int { return len(sc.visited) }

// Each calls fn for every node the last search reached, in discovery
// order (deterministic), until fn returns false.
func (sc *SearchScratch) Each(fn func(v int32, d int64) bool) {
	for _, v := range sc.visited {
		if !fn(v, sc.dist[v]) {
			return
		}
	}
}

// DijkstraWithinScratchCtx computes shortest-path distances from src to
// every node within radius (inclusive; negative radius = unbounded),
// storing them in sc: after a nil-error return, sc.Dist/sc.Each expose
// the reached nodes. It is the workhorse of the BRNN baseline, whose
// search radius shrinks as facilities are placed. ctx is polled every
// checkEvery heap pops; on cancellation it returns ctx.Err() and sc
// holds a partial search that must not be read.
func (g *Graph) DijkstraWithinScratchCtx(ctx context.Context, src int32, radius int64, sc *SearchScratch) error {
	sc.begin()
	sc.dist[src], sc.stamp[src] = 0, sc.epoch
	sc.visited = append(sc.visited, src)
	h := sc.frontier
	h.Push(src, 0)
	pops, relax := 0, 0
	if rec := obs.From(ctx); rec != nil {
		defer func() { flushSearchCounters(rec, h, int64(pops), int64(relax)) }()
	}
	for h.Len() > 0 {
		if pops++; pops&(checkEvery-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v, d := h.PopMin()
		if d > sc.dist[v] {
			continue
		}
		for i := g.off[v]; i < g.off[v+1]; i++ {
			u, nd := g.dst[i], d+g.w[i]
			if radius >= 0 && nd > radius {
				continue
			}
			if sc.stamp[u] != sc.epoch {
				sc.stamp[u] = sc.epoch
				sc.dist[u] = nd
				sc.visited = append(sc.visited, u)
				relax++
				h.Push(u, nd)
			} else if nd < sc.dist[u] {
				sc.dist[u] = nd
				relax++
				h.DecreaseKey(u, nd)
			}
		}
	}
	return nil
}

// DijkstraToTargetsScratchCtx fills out[i] with the shortest-path
// distance from src to targets[i] (Inf when unreachable), using sc for
// its search state, and stops as soon as every distinct target is
// settled. len(out) must equal len(targets). ctx is polled every
// checkEvery heap pops; on cancellation it returns ctx.Err() and out
// must not be read.
func (g *Graph) DijkstraToTargetsScratchCtx(ctx context.Context, src int32, targets []int32, out []int64, sc *SearchScratch) error {
	sc.begin()
	remaining := 0
	for _, t := range targets {
		if sc.want[t] != sc.epoch {
			sc.want[t] = sc.epoch
			remaining++
		}
	}
	sc.dist[src], sc.stamp[src] = 0, sc.epoch
	sc.visited = append(sc.visited, src)
	h := sc.frontier
	h.Push(src, 0)
	pops, relax := 0, 0
	if rec := obs.From(ctx); rec != nil {
		defer func() { flushSearchCounters(rec, h, int64(pops), int64(relax)) }()
	}
	for h.Len() > 0 && remaining > 0 {
		if pops++; pops&(checkEvery-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v, d := h.PopMin()
		if d > sc.dist[v] || sc.done[v] == sc.epoch {
			continue
		}
		sc.done[v] = sc.epoch
		if sc.want[v] == sc.epoch {
			remaining--
		}
		for i := g.off[v]; i < g.off[v+1]; i++ {
			u, nd := g.dst[i], d+g.w[i]
			if sc.stamp[u] != sc.epoch {
				sc.stamp[u] = sc.epoch
				sc.dist[u] = nd
				sc.visited = append(sc.visited, u)
				relax++
				h.Push(u, nd)
			} else if nd < sc.dist[u] {
				sc.dist[u] = nd
				relax++
				h.DecreaseKey(u, nd)
			}
		}
	}
	for i, t := range targets {
		if sc.done[t] == sc.epoch {
			out[i] = sc.dist[t]
		} else {
			out[i] = Inf
		}
	}
	return nil
}
