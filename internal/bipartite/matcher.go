// Package bipartite implements the paper's matching engine (§IV-D, §V):
// a Successive Shortest Path Algorithm over the bipartite graph G_b
// between customers and candidate facilities, with
//
//   - lazy edge materialization driven by one persistent network-Dijkstra
//     per customer (graph.NNSearcher), so only a small fraction of the
//     ℓ·m possible edges is ever weighted;
//   - node potentials keeping residual reduced costs nonnegative, so
//     every inner search is plain Dijkstra (DESIGN.md §4 proves that a
//     freshly materialized edge never breaks this);
//   - the Theorem-1 pruning threshold min{v.dist + nnDist(v) − v.p} that
//     certifies a running augmenting path optimal over the *complete*
//     bipartite graph while only the materialized part is inspected;
//   - flow augmentation that rewires earlier assignments when beneficial.
//
// Each FindPairCtx(ctx, i) call matches customer i to exactly one
// additional facility (all bipartite edges have capacity one), as the
// paper prescribes, and the running matching is always a minimum-cost
// flow of its value over the complete bipartite graph.
// RemoveCustomerCtx deletes a customer and keeps that guarantee with at
// most one bounded cycle-cancelling search.
package bipartite

import (
	"context"
	"fmt"
	"math/bits"

	"mcfs/internal/data"
	"mcfs/internal/graph"
	"mcfs/internal/pq"
)

// bedge is a materialized customer→facility edge. Edges are appended in
// nondecreasing weight order (NN order from the customer's searcher).
// Whether it is matched is recorded in Matcher.unmatched, not here.
type bedge struct {
	fac int32 // facility index
	w   int64 // original weight: network distance customer→facility
}

// facEdge back-references a matched edge from the facility side. It
// carries the edge's weight, so the facility side of a search reads no
// customer's edge list.
type facEdge struct {
	cust int32
	idx  int32 // index into edges[cust]
	w    int64 // edges[cust][idx].w
}

// Stats aggregates work counters for the engine (used by the ablation
// benchmarks and Fig. 12b-style reporting).
type Stats struct {
	EdgesMaterialized int
	DijkstraRuns      int
	NodesScanned      int
	Augmentations     int
}

// Matcher is the incremental bipartite matching engine. Bipartite node
// ids: facility j is node j, customer i is node L()+i — facilities come
// first so that customers can be appended dynamically (AddCustomer) and
// removed by moving the last one into the gap (RemoveCustomerCtx).
//
// A customer's materialized edges are kept in NN order, and its
// unmatched-edge bitset is the one record of which are matched; facMatch
// points back from each facility to its matched edges, with their
// weights. The inner searches walk only a customer's unmatched edges,
// its residual arcs, so a customer whose demand has matched most of its
// edges costs a search only the few it can still use. The matcher also
// records which facilities' σ_j changed (TakeChanged), so a set-cover
// pass reads only the loads that may have moved.
type Matcher struct {
	g         *graph.Graph
	custNodes []int32
	facs      []data.Facility
	isCand    []bool

	searchers []*graph.NNSearcher
	edges     [][]bedge
	// unmatched is, per customer, a bitset over the indexes of edges[i]:
	// bit idx is set exactly when edges[i][idx] is not matched. It is
	// the one record of matched state, and it lets the searches walk a
	// customer's residual arcs without visiting its matched edges.
	unmatched  [][]uint64
	matchCount []int32 // per customer: matched edges in edges[i]
	facMatch   [][]facEdge
	facIdx     map[int32]int
	pot        []int64
	// cost is the sum of original weights over matched edges, updated
	// wherever an edge is matched or unmatched (flipPath, unmatch).
	cost int64

	// changed records the facilities whose facMatch gained or lost an
	// entry since the last TakeChanged, once each: isChanged is set
	// exactly for the facilities it holds, so it never exceeds ℓ
	// entries, even if nobody takes it.
	changed   []int32
	isChanged []bool

	// exhaustive disables the early-stop optimization (used by tests and
	// the threshold ablation).
	exhaustive bool

	// ctx is the cooperative-cancellation context of the current
	// FindPairCtx call (context.Background() before the first). It is
	// installed on a per-customer searcher whenever the searcher is
	// read, so the resumed network Dijkstras poll it too, and a searcher
	// an earlier call's cancellation stalled resumes under it.
	ctx context.Context

	// Scratch state for the inner shortest-path search, epoch-stamped so
	// it needs no clearing between runs.
	dist    []int64
	parent  []int64 // encoded arc; see parent encoding below
	stamp   []int32 // relax stamp
	settled []int32 // settle order of the last run
	epoch   int32
	heap    *pq.LazyHeap
	flips   []flip // the path the last call flipped (Moved)

	stats Stats
}

// Parent encoding: for a facility node reached from customer c via
// edges[c][i], parent = int64(c)<<32 | int64(i). For a customer node
// reached from facility f via facMatch[f][i], parent =
// -(int64(f)<<32|int64(i)) - 1. The source has parent parentNone.
const parentNone = int64(-1) << 62

// New creates a matcher for the given customers and candidate
// facilities over network g. The candidate mask is shared by all
// per-customer searchers.
func New(g *graph.Graph, custNodes []int32, facs []data.Facility) *Matcher {
	m, l := len(custNodes), len(facs)
	isCand := make([]bool, g.N())
	for _, f := range facs {
		isCand[f.Node] = true
	}
	n := m + l
	mt := &Matcher{
		ctx:        context.Background(),
		g:          g,
		custNodes:  append([]int32(nil), custNodes...),
		facs:       facs,
		isCand:     isCand,
		searchers:  make([]*graph.NNSearcher, m),
		edges:      make([][]bedge, m),
		unmatched:  make([][]uint64, m),
		matchCount: make([]int32, m),
		facMatch:   make([][]facEdge, l),
		isChanged:  make([]bool, l),

		pot:    make([]int64, n),
		dist:   make([]int64, n),
		parent: make([]int64, n),
		stamp:  make([]int32, n),
		heap:   pq.NewLazy(),
	}
	// Every customer's first bitset word comes from one array, so the
	// index costs one allocation until a customer passes 64 edges.
	words := make([]uint64, m)
	for i := range mt.unmatched {
		mt.unmatched[i] = words[i : i : i+1]
	}
	return mt
}

// AddCustomer appends a new, unmatched customer at the given network
// node and returns its customer index. The scratch arrays grow
// geometrically, so the amortized cost is O(1) plus the lazy searcher
// initialization on the customer's first FindPairCtx. Facilities occupy
// the low node ids, so existing state is unaffected.
func (mt *Matcher) AddCustomer(node int32) int {
	i := len(mt.custNodes)
	mt.custNodes = append(mt.custNodes, node)
	mt.searchers = append(mt.searchers, nil)
	mt.edges = append(mt.edges, nil)
	mt.unmatched = append(mt.unmatched, nil)
	mt.matchCount = append(mt.matchCount, 0)
	if need := mt.L() + len(mt.custNodes); need > len(mt.pot) {
		grow := len(mt.pot) * 2
		if grow < need {
			grow = need
		}
		mt.pot = growInt64(mt.pot, grow)
		mt.dist = growInt64(mt.dist, grow)
		mt.parent = growInt64(mt.parent, grow)
		mt.stamp = growInt32(mt.stamp, grow)
	}
	return i
}

func growInt64(s []int64, n int) []int64 {
	out := make([]int64, n)
	copy(out, s)
	return out
}

func growInt32(s []int32, n int) []int32 {
	out := make([]int32, n)
	copy(out, s)
	return out
}

// SetExhaustive disables (true) or enables (false) the early-stop
// optimization of the inner search. Exhaustive mode settles the whole
// reachable residual graph every run; results are identical, only the
// amount of scanning differs.
func (mt *Matcher) SetExhaustive(v bool) { mt.exhaustive = v }

// M returns the number of customers; L the number of facilities.
func (mt *Matcher) M() int { return len(mt.custNodes) }

// L returns the number of candidate facilities.
func (mt *Matcher) L() int { return len(mt.facs) }

// MatchCount returns the number of facilities customer i is matched to.
func (mt *Matcher) MatchCount(i int) int { return int(mt.matchCount[i]) }

// AssignedCount returns |σ_j|, the number of customers matched to j.
func (mt *Matcher) AssignedCount(j int) int { return len(mt.facMatch[j]) }

// CountUncovered returns how many customers matched to facility j are
// not marked in covered (indexed by customer).
func (mt *Matcher) CountUncovered(j int, covered []bool) int {
	n := 0
	for _, fe := range mt.facMatch[j] {
		if !covered[fe.cust] {
			n++
		}
	}
	return n
}

// MarkCovered marks every customer matched to facility j in covered and
// returns how many were not marked before.
func (mt *Matcher) MarkCovered(j int, covered []bool) int {
	n := 0
	for _, fe := range mt.facMatch[j] {
		if !covered[fe.cust] {
			covered[fe.cust] = true
			n++
		}
	}
	return n
}

// Match returns the facility customer i is matched to and the edge's
// original weight; ok is false unless the customer holds exactly one
// match. It allocates nothing.
func (mt *Matcher) Match(i int) (fac int, w int64, ok bool) {
	if mt.matchCount[i] == 1 {
		for idx, e := range mt.edges[i] {
			if mt.matched(i, idx) {
				return int(e.fac), e.w, true
			}
		}
	}
	return -1, 0, false
}

// matched reports whether edges[i][idx] is matched.
func (mt *Matcher) matched(i, idx int) bool {
	return mt.unmatched[i][idx>>6]&(1<<(idx&63)) == 0
}

// setMatched records edges[i][idx] as matched (v) or unmatched.
func (mt *Matcher) setMatched(i, idx int, v bool) {
	if v {
		mt.unmatched[i][idx>>6] &^= 1 << (idx & 63)
	} else {
		mt.unmatched[i][idx>>6] |= 1 << (idx & 63)
	}
}

// relaxArcs relaxes the residual arcs out of node v, settled at reduced
// distance d: a customer's unmatched edges, walked through its bitset in
// ascending index order, or a facility's matched edges back to their
// customers.
func (mt *Matcher) relaxArcs(v int32, d int64) {
	l := mt.L()
	if int(v) >= l {
		ci := int(v) - l
		edges := mt.edges[ci]
		for wi, word := range mt.unmatched[ci] {
			for ; word != 0; word &= word - 1 {
				idx := wi<<6 | bits.TrailingZeros64(word)
				e := edges[idx]
				mt.relax(e.fac, d+e.w-mt.pot[v]+mt.pot[e.fac], int64(ci)<<32|int64(idx))
			}
		}
		return
	}
	for idx, fe := range mt.facMatch[v] {
		cn := int32(l + int(fe.cust))
		mt.relax(cn, d-fe.w-mt.pot[v]+mt.pot[cn], -(int64(v)<<32|int64(idx))-1)
	}
}

// TotalMatchedCost returns the sum of original weights over all matched
// edges. It is kept as a running total, so the call is O(1).
func (mt *Matcher) TotalMatchedCost() int64 { return mt.cost }

// TakeChanged returns every facility whose σ_j gained or lost a
// customer since the previous call (since New before the first), once
// each, and starts a new record. A facility whose load changed and
// changed back may be listed. The slice is valid until the next change;
// callers must not modify it.
func (mt *Matcher) TakeChanged() []int32 {
	out := mt.changed
	for _, j := range out {
		mt.isChanged[j] = false
	}
	mt.changed = out[:0]
	return out
}

// markChanged records that facility j's facMatch gained or lost an
// entry.
func (mt *Matcher) markChanged(j int32) {
	if !mt.isChanged[j] {
		mt.isChanged[j] = true
		mt.changed = append(mt.changed, j)
	}
}

// Stats returns accumulated work counters.
func (mt *Matcher) Stats() Stats { return mt.stats }

func (mt *Matcher) searcher(i int) *graph.NNSearcher {
	if mt.searchers[i] == nil {
		mt.searchers[i] = graph.NewNNSearcherCtx(mt.ctx, mt.g, mt.custNodes[i], mt.isCand)
	} else {
		mt.searchers[i].SetContext(mt.ctx)
	}
	return mt.searchers[i]
}

// nnDist returns the weight of customer i's next unmaterialized edge
// (graph.Inf when exhausted). Edges are only ever materialized through
// the customer's own searcher, in nondecreasing order, so the searcher's
// prefetched peek is exactly that weight.
func (mt *Matcher) nnDist(i int) int64 { return mt.searcher(i).PeekDist() }

// materialize appends customer i's next nearest edge to G_b. It fails
// when the searcher is exhausted (see materializeFailure), and when the
// fresh edge's reduced cost is negative: the invariant pot[c] ≤
// nnDist(c) rules that out (DESIGN.md §4), and the inner search is
// plain Dijkstra, which a negative arc would silently break.
// FindPairCtx returns either failure as its error.
func (mt *Matcher) materialize(i int) error {
	node, w, ok := mt.searcher(i).Next()
	if !ok {
		return mt.materializeFailure(i)
	}
	j := mt.facIndex(node)
	if rc := w - mt.pot[mt.L()+i] + mt.pot[j]; rc < 0 {
		return fmt.Errorf("bipartite: invariant breach: customer %d's fresh edge to facility %d has reduced cost %d < 0", i, j, rc)
	}
	idx := len(mt.edges[i])
	mt.edges[i] = append(mt.edges[i], bedge{fac: int32(j), w: w})
	if idx>>6 == len(mt.unmatched[i]) {
		mt.unmatched[i] = append(mt.unmatched[i], 0)
	}
	mt.setMatched(i, idx, false)
	mt.stats.EdgesMaterialized++
	return nil
}

// facIndex maps a facility node id to its index, building the lookup
// lazily on first use.
func (mt *Matcher) facIndex(node int32) int {
	if mt.facIdx == nil {
		mt.facIdx = make(map[int32]int, len(mt.facs))
		for j, f := range mt.facs {
			mt.facIdx[f.Node] = j
		}
	}
	return mt.facIdx[node]
}
