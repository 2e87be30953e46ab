package bipartite

import (
	"context"
	"fmt"

	"mcfs/internal/graph"
	"mcfs/internal/obs"
)

// FindPairCtx implements Algorithm 2 of the paper: it matches customer i
// to exactly one additional facility, rewiring earlier assignments along
// the augmenting path when beneficial, and materializing bipartite edges
// only when the Theorem-1 threshold proves the current best path might
// not be optimal over the complete bipartite graph.
//
// It returns false when no augmenting path from i exists even in the
// complete graph (every reachable facility is full or unreachable); the
// matching is left unchanged in that case.
//
// ctx is checked before and after each augmenting-path search (each
// retry of the inner shortest path) and propagated into the
// per-customer network searchers, which poll it during long expansions.
// On cancellation it returns ctx.Err() with the matching unchanged by
// this call, and the matcher stays usable: a searcher the cancellation
// stalled resumes where it stopped once a later call reads it under a
// live context. The checkpoints never alter the search, so an
// uncancelled run is byte-identical whatever its context.
//
// Every inner search is plain Dijkstra over nonnegative reduced costs.
// A freshly materialized edge cannot break that (DESIGN.md §4); if one
// ever did, FindPairCtx returns an invariant-breach error instead of a
// matching.
func (mt *Matcher) FindPairCtx(ctx context.Context, i int) (matched bool, err error) {
	mt.ctx = ctx
	if rec := obs.From(ctx); rec != nil {
		defer mt.flushStats(rec, mt.stats)
	}
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		best, bestFac, thr, argmin := mt.shortestPath(i)
		if best <= thr {
			// A searcher stalled by a cancellation during this search
			// reported PeekDist() == Inf, so thr may be too high: the path
			// may not be optimal, and "no reachable facility" may be a
			// cancellation masquerading as infeasibility, which callers
			// like AssignToSelection would trust. ctx errors are sticky,
			// so one check after the search catches every such stall.
			if err := ctx.Err(); err != nil {
				return false, err
			}
			if best >= graph.Inf {
				return false, nil
			}
			mt.augment(bestFac, best)
			return true, nil
		}
		// thr < best: an unmaterialized edge could yield a shorter path;
		// add the minimizing customer's next nearest edge and retry. The
		// threshold is finite only when that searcher has a next edge, so
		// a failure here is either a cancellation recorded by the searcher
		// or an invariant breach — both must abort the loop (retrying with
		// unchanged state would spin forever).
		if err := mt.materialize(argmin); err != nil {
			return false, err
		}
	}
}

// flushStats adds the matcher-stat deltas since prev to rec. The hot
// loops keep incrementing the plain mt.stats ints; recording is a
// per-call snapshot diff, deferred on every exit path, not a per-event
// atomic.
func (mt *Matcher) flushStats(rec *obs.Recorder, prev Stats) {
	rec.Add(obs.SSPASearches, int64(mt.stats.DijkstraRuns-prev.DijkstraRuns))
	rec.Add(obs.SSPANodesScanned, int64(mt.stats.NodesScanned-prev.NodesScanned))
	rec.Add(obs.SSPAEdgesMaterialized, int64(mt.stats.EdgesMaterialized-prev.EdgesMaterialized))
	rec.Add(obs.SSPAAugmentingPaths, int64(mt.stats.Augmentations-prev.Augmentations))
}

// materializeFailure classifies a failed materialization for customer i:
// a cancellation that stalled the searcher propagates as that error;
// anything else means the Theorem-1 threshold promised a next edge the
// searcher does not have — an internal invariant breach reported
// explicitly rather than silently retried.
func (mt *Matcher) materializeFailure(i int) error {
	if serr := mt.searchers[i].Err(); serr != nil {
		return serr
	}
	return fmt.Errorf("bipartite: invariant breach: finite threshold promised customer %d a next edge but its searcher is exhausted", i)
}

// shortestPath runs the inner search of Algorithm 2, line 8: shortest
// paths from customer src over the materialized residual graph with
// reduced costs. It returns the reduced distance and index of the best
// free facility (graph.Inf/-1 if none reachable), the Theorem-1
// threshold min{v.dist + nnDist(v) − v.p} over settled customers, and
// the customer attaining it.
//
// Every residual reduced cost is nonnegative (DESIGN.md §4), so the
// search is plain Dijkstra, and unless the matcher is exhaustive it
// stops early once the outcome is provably decided.
func (mt *Matcher) shortestPath(src int) (best int64, bestFac int, thr int64, argmin int) {
	mt.stats.DijkstraRuns++
	mt.epoch++
	mt.settled = mt.settled[:0]
	h := mt.heap
	h.Reset()
	l := mt.L()
	mt.relax(int32(l+src), 0, parentNone)

	best, bestFac = graph.Inf, -1
	thr, argmin = graph.Inf, -1
	for h.Len() > 0 {
		v, d := h.PopMin()
		if d > mt.dist[v] {
			continue // superseded entry
		}
		if !mt.exhaustive {
			// d is the smallest key of any unsettled node.
			// Certain reject: the final best free-facility distance is at
			// least min(best, d), and the threshold only shrinks — once thr
			// undercuts that floor, a materialization is inevitable.
			floor := best
			if d < floor {
				floor = d
			}
			if thr < floor {
				break
			}
			// Certain accept: every unsettled customer key is at least
			// d − maxCustPot and every unsettled facility is at least d
			// away, so neither thr nor best can drop below best.
			if bestFac >= 0 && d-mt.maxCustPot >= best {
				break
			}
		}
		mt.settled = append(mt.settled, v)
		mt.stats.NodesScanned++
		if int(v) >= l {
			ci := int(v) - l
			if nn := mt.nnDist(ci); nn < graph.Inf {
				if key := d + nn - mt.pot[v]; key < thr {
					thr, argmin = key, ci
				}
			}
			for idx, e := range mt.edges[ci] {
				if e.matched {
					continue
				}
				fn := e.fac
				mt.relax(fn, d+e.w-mt.pot[v]+mt.pot[fn], int64(ci)<<32|int64(idx))
			}
		} else {
			j := int(v)
			if len(mt.facMatch[j]) < mt.facs[j].Capacity && d < best {
				best, bestFac = d, j
			}
			for idx, fe := range mt.facMatch[j] {
				e := mt.edges[fe.cust][fe.idx]
				cn := int32(l + int(fe.cust))
				mt.relax(cn, d-e.w-mt.pot[v]+mt.pot[cn], -(int64(j)<<32|int64(idx))-1)
			}
		}
	}
	return best, bestFac, thr, argmin
}

// relax updates node v's tentative distance.
func (mt *Matcher) relax(v int32, d int64, par int64) {
	if mt.stamp[v] == mt.epoch && d >= mt.dist[v] {
		return
	}
	if mt.stamp[v] != mt.epoch {
		mt.stamp[v] = mt.epoch
	}
	mt.dist[v] = d
	mt.parent[v] = par
	mt.heap.Push(v, d)
}

// flip is one arc of an augmenting path, recorded by augment before any
// matched flag changes.
type flip struct {
	fac  int32 // facility index
	idx  int32 // meaning depends on fwd: edges[cust] index or facMatch[fac] index
	cust int32
	fwd  bool
}

// augment flips matched flags along the shortest path ending at free
// facility j with reduced length pathLen, then applies the standard
// potential update p(v) += max(0, pathLen − dist(v)) to settled nodes
// (Algorithm 2, lines 13–17).
func (mt *Matcher) augment(j int, pathLen int64) {
	mt.flipPath(j)
	mt.stats.Augmentations++

	l := mt.L()
	for _, v := range mt.settled {
		if d := mt.dist[v]; d < pathLen {
			mt.pot[v] += pathLen - d
			if int(v) >= l && mt.pot[v] > mt.maxCustPot {
				mt.maxCustPot = mt.pot[v]
			}
		}
	}
}

// flipPath flips matched flags along the last search's path from its
// source to facility j: forward arcs become matched, backward arcs
// unmatched. It returns the number of forward arcs, which is how many
// customers the flip moved onto a new facility.
func (mt *Matcher) flipPath(j int) (moved int) {
	l := mt.L()
	flips := mt.flips[:0]
	node := int32(j)
	for {
		par := mt.parent[node]
		if par == parentNone {
			break
		}
		if par >= 0 {
			cust := int32(par >> 32)
			idx := int32(par & 0xffffffff)
			flips = append(flips, flip{fac: mt.edges[cust][idx].fac, idx: idx, cust: cust, fwd: true})
			node = int32(l + int(cust))
		} else {
			enc := -par - 1
			fac := int32(enc >> 32)
			idx := int32(enc & 0xffffffff)
			flips = append(flips, flip{fac: fac, idx: idx, cust: mt.facMatch[fac][idx].cust, fwd: false})
			node = fac
		}
	}
	// Apply removals (backward arcs) first: each facility occurs at most
	// once on a shortest path, so recorded facMatch positions stay valid.
	for _, f := range flips {
		if f.fwd {
			continue
		}
		fe := mt.facMatch[f.fac][f.idx]
		e := &mt.edges[fe.cust][fe.idx]
		e.matched = false
		mt.cost -= e.w
		mt.matchCount[fe.cust]--
		last := len(mt.facMatch[f.fac]) - 1
		mt.facMatch[f.fac][f.idx] = mt.facMatch[f.fac][last]
		mt.facMatch[f.fac] = mt.facMatch[f.fac][:last]
	}
	for _, f := range flips {
		if !f.fwd {
			continue
		}
		e := &mt.edges[f.cust][f.idx]
		e.matched = true
		mt.cost += e.w
		mt.matchCount[f.cust]++
		mt.facMatch[f.fac] = append(mt.facMatch[f.fac], facEdge{cust: f.cust, idx: f.idx})
		if !mt.everMatched[f.fac] {
			mt.everMatched[f.fac] = true
			mt.touched = append(mt.touched, f.fac)
		}
		moved++
	}
	mt.flips = flips
	return moved
}
