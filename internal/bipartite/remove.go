package bipartite

import (
	"context"
	"fmt"

	"mcfs/internal/obs"
)

// RemoveCustomerCtx deletes customer i and restores optimality in place
// (DESIGN.md §4, "Departures"). The customer's match, if it has one, is
// released. When that frees a slot at a facility that was full and
// holds a positive potential, one bounded search over the materialized
// residual graph looks for a negative cycle through the freed slot and
// cancels it. RemoveCustomerCtx returns how many customers that cycle
// moved to another facility: 0 when there was none. Moved names them.
//
// The last customer takes index i (swap-remove), so a caller that maps
// its own ids onto customer indexes must move the last one's entry to
// i. Only a customer matched at most once can be removed: releasing
// one slot needs at most one cycle, releasing several could need more.
// A customer matched more than once is rejected with the matcher
// unchanged.
//
// The repair never polls ctx. It is one search bounded by the
// materialized graph, like one inner search of FindPairCtx, and it
// neither materializes an edge nor touches a searcher. ctx only carries
// the obs recorder the work is counted on, as FindPairCtx counts its
// own.
func (mt *Matcher) RemoveCustomerCtx(ctx context.Context, i int) (moved int, err error) {
	mt.flips = mt.flips[:0]
	if i < 0 || i >= mt.M() {
		return 0, fmt.Errorf("bipartite: remove customer %d of %d", i, mt.M())
	}
	if n := mt.matchCount[i]; n > 1 {
		return 0, fmt.Errorf("bipartite: customer %d holds %d matches; only a customer matched at most once can be removed", i, n)
	}
	if rec := obs.From(ctx); rec != nil {
		defer mt.flushStats(rec, mt.stats)
	}
	freed := -1
	if mt.matchCount[i] == 1 {
		freed = mt.unmatch(i)
	}
	mt.swapRemove(i)
	// A slot that was already free leaves the rest optimal: the residual
	// graph only lost arcs. So does a full facility at potential 0, whose
	// new arc to the sink costs nothing in reduced terms.
	if freed < 0 || len(mt.facMatch[freed])+1 < mt.facs[freed].Capacity || mt.pot[freed] == 0 {
		return 0, nil
	}
	return mt.cancelCycle(freed), nil
}

// unmatch releases customer i's one matched edge and returns the
// facility it held.
func (mt *Matcher) unmatch(i int) int {
	for idx, e := range mt.edges[i] {
		if !mt.matched(i, idx) {
			continue
		}
		mt.setMatched(i, idx, false)
		mt.cost -= e.w
		mt.matchCount[i]--
		fm := mt.facMatch[e.fac]
		for k, fe := range fm {
			if int(fe.cust) == i {
				fm[k] = fm[len(fm)-1]
				mt.facMatch[e.fac] = fm[:len(fm)-1]
				break
			}
		}
		mt.markChanged(e.fac)
		return int(e.fac)
	}
	panic(fmt.Sprintf("bipartite: customer %d has match count %d but no matched edge", i, mt.matchCount[i]))
}

// swapRemove deletes unmatched customer i by moving the last customer
// into its index: its node, searcher, edges and their unmatched index,
// match count and potential, with the customer of the facMatch
// back-references of its matched edges rewritten (the edges themselves,
// weights included, do not change).
// The vacated potential is zeroed for the next AddCustomer.
func (mt *Matcher) swapRemove(i int) {
	l, last := mt.L(), mt.M()-1
	if i != last {
		mt.custNodes[i] = mt.custNodes[last]
		mt.searchers[i] = mt.searchers[last]
		mt.edges[i] = mt.edges[last]
		mt.unmatched[i] = mt.unmatched[last]
		mt.matchCount[i] = mt.matchCount[last]
		mt.pot[l+i] = mt.pot[l+last]
		for idx, e := range mt.edges[i] {
			if !mt.matched(i, idx) {
				continue
			}
			for k := range mt.facMatch[e.fac] {
				if fe := &mt.facMatch[e.fac][k]; int(fe.cust) == last {
					fe.cust = int32(i)
					break
				}
			}
		}
	}
	mt.searchers[last] = nil
	mt.edges[last] = nil
	mt.unmatched[last] = nil
	mt.custNodes = mt.custNodes[:last]
	mt.searchers = mt.searchers[:last]
	mt.edges = mt.edges[:last]
	mt.unmatched = mt.unmatched[:last]
	mt.matchCount = mt.matchCount[:last]
	mt.pot[l+last] = 0
}

// cancelCycle restores optimality after full facility j lost a customer.
// The freed slot is a new residual arc j → sink of reduced cost −b, with
// b = pot[j] > 0; every other residual arc is nonnegative. So a negative
// cycle, if any, runs sink → f → … → j → sink, and the search for it is
// Dijkstra from the sink: every facility holding a customer is a source
// at label pot[f] (the reduced cost of its sink arc), and the search
// stops at j or once the smallest key reaches b, since no cycle can use
// a longer path.
//
// The search follows materialized arcs only. An unmaterialized edge
// c→f weighs at least nnDist(c) ≥ pot[c], so a label reaching f through
// it is at least pot[f]: no better than f's own source label, and for
// a facility holding nobody, which has no outgoing arc and can only be
// j, at least b.
//
// If j settles at d(j) < b, the path plus the freed slot is a negative
// cycle, and flipping the path cancels it; one cycle suffices, because
// raising one arc's capacity by one changes a min-cost flow by at most
// one cycle through that arc. Either way every potential drops by
// min(d(v), L) with L = min(d(j), b), unreached nodes by L, which keeps
// every residual reduced cost nonnegative, brings each facility with a
// free slot to 0 (invariant 1) and only lowers customer potentials.
// Facilities holding nobody are then lifted back to 0; they have no
// outgoing arcs, so raising them is safe. Customers without a searcher
// have no arcs and stay at 0. It returns the number of customers moved.
func (mt *Matcher) cancelCycle(j int) (moved int) {
	b := mt.pot[j]
	l := mt.L()
	mt.stats.DijkstraRuns++
	mt.epoch++
	mt.settled = mt.settled[:0]
	h := mt.heap
	h.Reset()
	for f := 0; f < l; f++ {
		if len(mt.facMatch[f]) > 0 && mt.pot[f] < b {
			mt.relax(int32(f), mt.pot[f], parentNone)
		}
	}
	cut := b
	for h.Len() > 0 {
		v, d := h.PopMin()
		if d > mt.dist[v] {
			continue // superseded entry
		}
		if d >= b {
			break
		}
		mt.settled = append(mt.settled, v)
		mt.stats.NodesScanned++
		if int(v) == j {
			cut = d
			break
		}
		mt.relaxArcs(v, d)
	}
	if cut < b {
		moved = mt.flipPath(j)
		mt.stats.Augmentations++
	}

	for f := 0; f < l; f++ {
		mt.pot[f] -= cut
	}
	for c := range mt.searchers {
		if mt.searchers[c] != nil {
			mt.pot[l+c] -= cut
		}
	}
	for _, v := range mt.settled {
		mt.pot[v] += cut - mt.dist[v]
	}
	for f := 0; f < l; f++ {
		if len(mt.facMatch[f]) == 0 && mt.pot[f] < 0 {
			mt.pot[f] = 0
		}
	}
	return moved
}
