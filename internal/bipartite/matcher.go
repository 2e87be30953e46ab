// Package bipartite implements the paper's matching engine (§IV-D, §V):
// a Successive Shortest Path Algorithm over the bipartite graph G_b
// between customers and candidate facilities, with
//
//   - lazy edge materialization driven by one persistent network-Dijkstra
//     per customer (graph.NNSearcher), so only a small fraction of the
//     ℓ·m possible edges is ever weighted;
//   - node potentials keeping residual reduced costs nonnegative;
//   - the Theorem-1 pruning threshold min{v.dist + nnDist(v) − v.p} that
//     certifies a running augmenting path optimal over the *complete*
//     bipartite graph while only the materialized part is inspected;
//   - flow augmentation that rewires earlier assignments when beneficial.
//
// Each FindPair(i) call matches customer i to exactly one additional
// facility (all bipartite edges have capacity one), as the paper
// prescribes, and the running matching is always a minimum-cost flow of
// its value over the complete bipartite graph.
package bipartite

import (
	"context"

	"mcfs/internal/data"
	"mcfs/internal/graph"
	"mcfs/internal/pq"
)

// bedge is a materialized customer→facility edge. Edges are appended in
// nondecreasing weight order (NN order from the customer's searcher).
type bedge struct {
	fac     int32 // facility index
	w       int64 // original weight: network distance customer→facility
	matched bool
}

// facEdge back-references a matched edge from the facility side.
type facEdge struct {
	cust int32
	idx  int32 // index into edges[cust]
}

// Stats aggregates work counters for the engine (used by the ablation
// benchmarks and Fig. 12b-style reporting).
type Stats struct {
	EdgesMaterialized int
	DijkstraRuns      int
	NodesScanned      int
	Reinsertions      int // label-correcting resettles (negative-arc repair)
	NegArcEvents      int // freshly materialized edges with negative reduced cost
	Augmentations     int
}

// Matcher is the incremental bipartite matching engine. Bipartite node
// ids: facility j is node j, customer i is node L()+i — facilities come
// first so that customers can be appended dynamically (AddCustomer).
type Matcher struct {
	g         *graph.Graph
	custNodes []int32
	facs      []data.Facility
	isCand    []bool

	searchers  []*graph.NNSearcher
	edges      [][]bedge
	matchCount []int32 // per customer: matched edges in edges[i]
	facMatch   [][]facEdge
	facIdx     map[int32]int
	pot        []int64
	maxCustPot int64

	// touched lists facilities that have ever held a match — the only
	// ones a set-cover pass needs to examine (everything else has zero
	// gain). With lazy materialization |touched| ≪ ℓ.
	touched     []int32
	everMatched []bool

	// negArcs lists materialized arcs whose reduced cost is currently
	// negative; while nonempty the inner search falls back from Dijkstra
	// to label-correcting and never stops early.
	negArcs []facEdge // reuses facEdge as (cust, edge idx) pair

	// exhaustive disables the early-stop optimization (used by tests and
	// the threshold ablation).
	exhaustive bool

	// ctx is the cooperative-cancellation context of the current
	// FindPairCtx call; nil means no cancellation. It is installed on the
	// per-customer searchers so their resumed network Dijkstras poll it
	// too. A matcher that has returned a context error is poisoned: the
	// interrupted searcher state cannot be resumed correctly.
	ctx context.Context

	// Scratch state for the inner shortest-path search, epoch-stamped so
	// it needs no clearing between runs.
	dist    []int64
	parent  []int64 // encoded arc; see parent encoding below
	stamp   []int32 // relax stamp
	done    []int32 // settle stamp
	settled []int32 // settle order of the last run
	epoch   int32
	heap    *pq.DenseHeap
	flips   []flip // augment's path buffer

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
		g:          g,
		custNodes:  append([]int32(nil), custNodes...),
		facs:       facs,
		isCand:     isCand,
		searchers:  make([]*graph.NNSearcher, m),
		edges:      make([][]bedge, m),
		matchCount: make([]int32, m),
		facMatch:   make([][]facEdge, l),

		everMatched: make([]bool, l),

		pot:    make([]int64, n),
		dist:   make([]int64, n),
		parent: make([]int64, n),
		stamp:  make([]int32, n),
		done:   make([]int32, n),
		heap:   pq.NewDense(n),
	}
	return mt
}

// AddCustomer appends a new, unmatched customer at the given network
// node and returns its customer index. The scratch arrays grow
// geometrically, so the amortized cost is O(1) plus the lazy searcher
// initialization on the customer's first FindPair. Facilities occupy the
// low node ids, so existing state is unaffected.
func (mt *Matcher) AddCustomer(node int32) int {
	i := len(mt.custNodes)
	mt.custNodes = append(mt.custNodes, node)
	mt.searchers = append(mt.searchers, nil)
	mt.edges = append(mt.edges, nil)
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
		mt.done = growInt32(mt.done, grow)
		mt.heap = pq.NewDense(grow)
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

// Matches returns the facility indexes customer i is matched to along
// with the corresponding original edge weights.
func (mt *Matcher) Matches(i int) (facs []int, weights []int64) {
	for _, e := range mt.edges[i] {
		if e.matched {
			facs = append(facs, int(e.fac))
			weights = append(weights, e.w)
		}
	}
	return facs, weights
}

// TotalMatchedCost returns the sum of original weights over all matched
// edges.
func (mt *Matcher) TotalMatchedCost() int64 {
	var total int64
	for i := range mt.edges {
		for _, e := range mt.edges[i] {
			if e.matched {
				total += e.w
			}
		}
	}
	return total
}

// Touched returns the facilities that have ever been matched to a
// customer, in first-touch order. Facilities outside this list have
// empty σ_j. The list only grows; callers must not modify it.
func (mt *Matcher) Touched() []int32 { return mt.touched }

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

// materialize appends customer i's next nearest edge to G_b and returns
// false when the searcher is exhausted.
func (mt *Matcher) materialize(i int) bool {
	node, w, ok := mt.searcher(i).Next()
	if !ok {
		return false
	}
	j := mt.facIndex(node)
	mt.edges[i] = append(mt.edges[i], bedge{fac: int32(j), w: w})
	mt.stats.EdgesMaterialized++
	// A fresh edge may have negative reduced cost; record it so the inner
	// search switches to label-correcting until potentials repair it.
	if rc := w - mt.pot[mt.L()+i] + mt.pot[j]; rc < 0 {
		mt.negArcs = append(mt.negArcs, facEdge{cust: int32(i), idx: int32(len(mt.edges[i]) - 1)})
		mt.stats.NegArcEvents++
	}
	return true
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

// purgeNegArcs drops recorded negative arcs whose reduced cost has been
// repaired by potential updates, and reports whether any remain.
func (mt *Matcher) purgeNegArcs() bool {
	kept := mt.negArcs[:0]
	for _, a := range mt.negArcs {
		e := mt.edges[a.cust][a.idx]
		if e.w-mt.pot[mt.L()+int(a.cust)]+mt.pot[e.fac] < 0 {
			kept = append(kept, a)
		}
	}
	mt.negArcs = kept
	return len(kept) > 0
}
