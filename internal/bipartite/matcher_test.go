package bipartite

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// --- reference implementation -------------------------------------------
//
// refMinCost computes the minimum-cost flow that matches each customer i
// to exactly demands[i] distinct facilities (edge capacity 1) under the
// facility capacities, over the complete bipartite graph with the given
// dense distance matrix. It uses plain successive-shortest-paths with
// Bellman-Ford on the residual graph (no potentials, no pruning), which
// is slow but obviously correct. Returns (cost, ok).
func refMinCost(dist [][]int64, caps []int, demands []int) (int64, bool) {
	m, l := len(dist), len(caps)
	matched := make([][]bool, m)
	for i := range matched {
		matched[i] = make([]bool, l)
	}
	load := make([]int, l)
	var total int64
	for unit := 0; ; unit++ {
		// Pick any customer still short of its demand.
		src := -1
		for i := 0; i < m; i++ {
			have := 0
			for j := 0; j < l; j++ {
				if matched[i][j] {
					have++
				}
			}
			if have < demands[i] {
				src = i
				break
			}
		}
		if src == -1 {
			return total, true
		}
		// Bellman-Ford over residual: nodes 0..m-1 customers, m..m+l-1 facilities.
		n := m + l
		d := make([]int64, n)
		par := make([]int, n)
		for i := range d {
			d[i] = graph.Inf
			par[i] = -1
		}
		d[src] = 0
		for iter := 0; iter < n; iter++ {
			changed := false
			for i := 0; i < m; i++ {
				if d[i] >= graph.Inf {
					continue
				}
				for j := 0; j < l; j++ {
					if matched[i][j] || dist[i][j] >= graph.Inf {
						continue
					}
					if nd := d[i] + dist[i][j]; nd < d[m+j] {
						d[m+j] = nd
						par[m+j] = i
						changed = true
					}
				}
			}
			for j := 0; j < l; j++ {
				if d[m+j] >= graph.Inf {
					continue
				}
				for i := 0; i < m; i++ {
					if !matched[i][j] {
						continue
					}
					if nd := d[m+j] - dist[i][j]; nd < d[i] {
						d[i] = nd
						par[i] = m + j
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
		best, bestJ := graph.Inf, -1
		for j := 0; j < l; j++ {
			if load[j] < caps[j] && d[m+j] < best {
				best, bestJ = d[m+j], j
			}
		}
		if bestJ < 0 {
			return 0, false // demand unsatisfiable
		}
		total += best
		// Trace back and flip.
		node := m + bestJ
		for node != src {
			p := par[node]
			if node >= m { // arrived via forward arc p -> node
				matched[p][node-m] = true
			} else { // arrived via backward arc (p is facility)
				matched[node][p-m] = false
			}
			node = p
		}
		load[bestJ]++
		// Recompute loads from scratch (flips may have shifted interior ones).
		for j := 0; j < l; j++ {
			load[j] = 0
			for i := 0; i < m; i++ {
				if matched[i][j] {
					load[j]++
				}
			}
		}
	}
}

// denseDistances runs one full Dijkstra per customer.
func denseDistances(g *graph.Graph, custNodes []int32, facs []data.Facility) [][]int64 {
	dist := make([][]int64, len(custNodes))
	for i, s := range custNodes {
		full := must(g.DijkstraCtx(context.Background(), s))
		row := make([]int64, len(facs))
		for j, f := range facs {
			row[j] = full[f.Node]
		}
		dist[i] = row
	}
	return dist
}

func randomNetwork(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for i := 1; i < n; i++ {
		b.AddEdge(int32(rng.Intn(i)), int32(i), 1+rng.Int63n(20))
	}
	for e := 0; e < n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(int32(u), int32(v), 1+rng.Int63n(20))
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Matches returns the facility indexes customer i is matched to along
// with the corresponding original edge weights.
func (mt *Matcher) Matches(i int) (facs []int, weights []int64) {
	for idx, e := range mt.edges[i] {
		if mt.matched(i, idx) {
			facs = append(facs, int(e.fac))
			weights = append(weights, e.w)
		}
	}
	return facs, weights
}

// checkInvariants verifies structural invariants of the matcher state.
func checkInvariants(t *testing.T, mt *Matcher) {
	t.Helper()
	for j := 0; j < mt.L(); j++ {
		if mt.AssignedCount(j) > mt.facs[j].Capacity {
			t.Fatalf("facility %d over capacity: %d > %d", j, mt.AssignedCount(j), mt.facs[j].Capacity)
		}
	}
	var cost int64
	for i := 0; i < mt.M(); i++ {
		facs, ws := mt.Matches(i)
		if mt.MatchCount(i) != len(facs) {
			t.Fatalf("customer %d: MatchCount %d, but matched to %v", i, mt.MatchCount(i), facs)
		}
		for _, w := range ws {
			cost += w
		}
		seen := map[int]bool{}
		for _, f := range facs {
			if seen[f] {
				t.Fatalf("customer %d matched twice to facility %d", i, f)
			}
			seen[f] = true
		}
	}
	// The running total must equal a fresh sum over matched edges.
	if got := mt.TotalMatchedCost(); got != cost {
		t.Fatalf("TotalMatchedCost %d, but matched edges sum to %d", got, cost)
	}
	checkEdgeIndex(t, mt)
	checkReducedCosts(t, mt)
	checkChanged(t, mt)
}

// loadShadows holds, for each matcher checkChanged has seen, every
// facility's load as of its last check.
var (
	shadowMu    sync.Mutex
	loadShadows = map[*Matcher][]int{}
)

// checkChanged takes the matcher's change record and requires it to
// list every facility whose load differs from the shadow, once each,
// with none out of range; then it brings the shadow up to date. A
// matcher's first check compares with empty loads, since its record
// starts at New. The record may also list a facility whose load changed
// and changed back, or whose customers changed but not their number.
func checkChanged(t *testing.T, mt *Matcher) {
	t.Helper()
	shadowMu.Lock()
	shadow, seen := loadShadows[mt]
	if !seen {
		shadow = make([]int, mt.L())
		loadShadows[mt] = shadow
		t.Cleanup(func() {
			shadowMu.Lock()
			delete(loadShadows, mt)
			shadowMu.Unlock()
		})
	}
	shadowMu.Unlock()
	listed := make([]bool, mt.L())
	for _, j := range mt.TakeChanged() {
		if j < 0 || int(j) >= mt.L() {
			t.Fatalf("TakeChanged lists facility %d of %d", j, mt.L())
		}
		if listed[j] {
			t.Fatalf("TakeChanged lists facility %d twice", j)
		}
		listed[j] = true
	}
	for j, was := range shadow {
		if now := mt.AssignedCount(j); now != was {
			if !listed[j] {
				t.Fatalf("facility %d's load went %d → %d, but TakeChanged does not list it", j, was, now)
			}
			shadow[j] = now
		}
	}
}

// checkEdgeIndex verifies the matched state: every facMatch entry points
// at a distinct edge to its facility and carries that edge's weight, and
// each customer's unmatched-edge index names exactly the edges no
// facMatch entry points to, with no index at or past the end of the
// customer's edge list.
func checkEdgeIndex(t *testing.T, mt *Matcher) {
	t.Helper()
	if len(mt.unmatched) != mt.M() {
		t.Fatalf("unmatched-edge index covers %d customers, matcher has %d", len(mt.unmatched), mt.M())
	}
	pointed := make([][]bool, mt.M())
	for i := range pointed {
		pointed[i] = make([]bool, len(mt.edges[i]))
	}
	for j := 0; j < mt.L(); j++ {
		for _, fe := range mt.facMatch[j] {
			if int(fe.cust) >= mt.M() || int(fe.idx) >= len(mt.edges[fe.cust]) || int(mt.edges[fe.cust][fe.idx].fac) != j {
				t.Fatalf("facMatch[%d] entry %+v points at no edge to facility %d", j, fe, j)
			}
			if w := mt.edges[fe.cust][fe.idx].w; fe.w != w {
				t.Fatalf("facMatch[%d] entry %+v carries weight %d, its edge weighs %d", j, fe, fe.w, w)
			}
			if pointed[fe.cust][fe.idx] {
				t.Fatalf("customer %d edge %d is named by two facMatch entries", fe.cust, fe.idx)
			}
			pointed[fe.cust][fe.idx] = true
		}
	}
	for i, words := range mt.unmatched {
		if n := len(mt.edges[i]); len(words)*64 < n {
			t.Fatalf("customer %d: unmatched-edge index holds %d bits for %d edges", i, len(words)*64, n)
		}
		for idx := 0; idx < len(words)*64; idx++ {
			inIndex := words[idx>>6]&(1<<(idx&63)) != 0
			switch {
			case idx >= len(mt.edges[i]) && inIndex:
				t.Fatalf("customer %d: unmatched-edge index names edge %d of %d", i, idx, len(mt.edges[i]))
			case idx < len(mt.edges[i]) && inIndex == pointed[i][idx]:
				t.Fatalf("customer %d edge %d: in unmatched-edge index %v, matched by facMatch %v", i, idx, inIndex, pointed[i][idx])
			}
		}
	}
}

// checkReducedCosts verifies the facts that make every inner search
// plain Dijkstra and the first free facility it pops the cheapest
// (DESIGN.md §4):
//
//  1. every materialized edge has a nonnegative reduced cost in its
//     residual direction: w − pot[c] + pot[j] ≥ 0 for an unmatched
//     edge c→j, and its negation ≥ 0 for a matched one (arc j→c);
//  2. pot[c] ≤ nnDist(c) for every customer whose searcher exists, and
//     pot[c] = 0 for the others; facility potentials stay ≥ 0;
//  3. every facility with a free slot has potential 0, so reduced
//     labels rank free facilities by true path cost.
//
// Fact 2 is what keeps a freshly materialized edge, whose weight is
// nnDist(c), inside fact 1.
func checkReducedCosts(t *testing.T, mt *Matcher) {
	t.Helper()
	l := mt.L()
	for j := 0; j < l; j++ {
		if mt.pot[j] < 0 {
			t.Fatalf("facility %d has negative potential %d", j, mt.pot[j])
		}
		if mt.AssignedCount(j) < mt.facs[j].Capacity && mt.pot[j] != 0 {
			t.Fatalf("facility %d has a free slot (%d of %d) but potential %d",
				j, mt.AssignedCount(j), mt.facs[j].Capacity, mt.pot[j])
		}
	}
	for i := 0; i < mt.M(); i++ {
		pc := mt.pot[l+i]
		for idx, e := range mt.edges[i] {
			rc := e.w - pc + mt.pot[e.fac]
			if mt.matched(i, idx) {
				rc = -rc
			}
			if rc < 0 {
				t.Fatalf("customer %d edge %d (facility %d, w %d, matched %v): residual reduced cost %d < 0",
					i, idx, e.fac, e.w, mt.matched(i, idx), rc)
			}
		}
		if s := mt.searchers[i]; s == nil {
			if pc != 0 {
				t.Fatalf("customer %d has no searcher but potential %d", i, pc)
			}
		} else if nn := s.PeekDist(); pc > nn {
			t.Fatalf("customer %d: potential %d exceeds its next edge weight %d", i, pc, nn)
		}
	}
}

func TestFindPairSimplePath(t *testing.T) {
	// Path 0-1-2-3-4; customers at 0 and 4, facilities at 1 (cap 1) and 3 (cap 1).
	b := graph.NewBuilder(5, false)
	for i := 0; i < 4; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, _ := b.Build()
	facs := []data.Facility{{Node: 1, Capacity: 1}, {Node: 3, Capacity: 1}}
	mt := New(g, []int32{0, 4}, facs)
	ctx := context.Background()
	if !must(mt.FindPairCtx(ctx, 0)) || !must(mt.FindPairCtx(ctx, 1)) {
		t.Fatal("FindPair failed on feasible instance")
	}
	if mt.TotalMatchedCost() != 2 {
		t.Fatalf("cost = %d, want 2", mt.TotalMatchedCost())
	}
	if mt.MatchCount(0) != 1 || mt.MatchCount(1) != 1 {
		t.Fatal("match counts wrong")
	}
	checkInvariants(t, mt)
}

func TestFindPairRewires(t *testing.T) {
	// Star: customers A(0), B(1); facilities F1(2) cap 1, F2(3) cap 1.
	// A-F1 = 1, A-F2 = 10, B-F1 = 2, B-F2 = 100.
	// Greedy A->F1 then B must rewire: optimal is A->F2? No: costs
	// A->F1 + B->F2 = 101; A->F2 + B->F1 = 12. After A->F1, matching B
	// must rewire A to F2.
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 2, 1).AddEdge(0, 3, 10).AddEdge(1, 2, 2).AddEdge(1, 3, 100)
	g, _ := b.Build()
	facs := []data.Facility{{Node: 2, Capacity: 1}, {Node: 3, Capacity: 1}}
	mt := New(g, []int32{0, 1}, facs)
	if !must(mt.FindPairCtx(context.Background(), 0)) {
		t.Fatal("FindPair(0) failed")
	}
	if mt.TotalMatchedCost() != 1 {
		t.Fatalf("after first match cost = %d, want 1", mt.TotalMatchedCost())
	}
	if !must(mt.FindPairCtx(context.Background(), 1)) {
		t.Fatal("FindPair(1) failed")
	}
	if mt.TotalMatchedCost() != 12 {
		t.Fatalf("cost = %d, want 12 (rewired)", mt.TotalMatchedCost())
	}
	facsOf0, _ := mt.Matches(0)
	if len(facsOf0) != 1 || facsOf0[0] != 1 {
		t.Fatalf("customer 0 should have been rewired to facility 1, got %v", facsOf0)
	}
	checkInvariants(t, mt)
}

func TestFindPairInfeasibleLeavesStateUnchanged(t *testing.T) {
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1, 1).AddEdge(1, 2, 1)
	g, _ := b.Build()
	facs := []data.Facility{{Node: 2, Capacity: 1}}
	mt := New(g, []int32{0}, facs)
	if !must(mt.FindPairCtx(context.Background(), 0)) {
		t.Fatal("first FindPair should succeed")
	}
	cost := mt.TotalMatchedCost()
	// Second unit for same customer: only facility already matched.
	if must(mt.FindPairCtx(context.Background(), 0)) {
		t.Fatal("FindPair should fail when all facilities are used by customer")
	}
	if mt.TotalMatchedCost() != cost || mt.MatchCount(0) != 1 {
		t.Fatal("failed FindPair modified state")
	}
	checkInvariants(t, mt)
}

func TestFindPairDisconnected(t *testing.T) {
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1, 1).AddEdge(2, 3, 1)
	g, _ := b.Build()
	facs := []data.Facility{{Node: 3, Capacity: 5}}
	mt := New(g, []int32{0}, facs)
	if must(mt.FindPairCtx(context.Background(), 0)) {
		t.Fatal("FindPair succeeded across disconnected components")
	}
}

func TestFindPairZeroCapacity(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1, 1)
	g, _ := b.Build()
	facs := []data.Facility{{Node: 1, Capacity: 0}}
	mt := New(g, []int32{0}, facs)
	if must(mt.FindPairCtx(context.Background(), 0)) {
		t.Fatal("FindPair used a zero-capacity facility")
	}
}

// runScenario drives a matcher through a randomized demand sequence and
// cross-checks the final cost against the reference min-cost flow.
func runScenario(t *testing.T, rng *rand.Rand, exhaustive bool) {
	t.Helper()
	m := 1 + rng.Intn(8)
	l := 1 + rng.Intn(8)
	n := m + l + 5 + rng.Intn(50)
	g := randomNetwork(rng, n)
	perm := rng.Perm(n)
	custNodes := make([]int32, m)
	for i := range custNodes {
		custNodes[i] = int32(perm[i])
	}
	facs := make([]data.Facility, l)
	for j := range facs {
		facs[j] = data.Facility{Node: int32(perm[m+j]), Capacity: 1 + rng.Intn(4)}
	}
	// Random demands, capped so the instance stays feasible w.h.p.
	totalCap := 0
	for _, f := range facs {
		totalCap += f.Capacity
	}
	demands := make([]int, m)
	budget := totalCap
	for i := range demands {
		max := min(l, budget)
		if max == 0 {
			break
		}
		demands[i] = rng.Intn(max + 1)
		budget -= demands[i]
	}

	mt := New(g, custNodes, facs)
	mt.SetExhaustive(exhaustive)
	// Interleave FindPair calls across customers in random order.
	type unit struct{ cust int }
	var units []unit
	for i, d := range demands {
		for u := 0; u < d; u++ {
			units = append(units, unit{i})
		}
	}
	rng.Shuffle(len(units), func(a, b int) { units[a], units[b] = units[b], units[a] })
	achieved := make([]int, m)
	for _, u := range units {
		if must(mt.FindPairCtx(context.Background(), u.cust)) {
			achieved[u.cust]++
		}
		checkInvariants(t, mt)
	}

	dist := denseDistances(g, custNodes, facs)
	want, ok := refMinCost(dist, capsOf(facs), achieved)
	if !ok {
		t.Fatalf("reference says achieved demands infeasible — matcher overachieved")
	}
	if got := mt.TotalMatchedCost(); got != want {
		t.Fatalf("matcher cost %d != reference optimal %d (demands %v, achieved %v, exhaustive=%v)",
			got, want, demands, achieved, exhaustive)
	}
	// Match counts must equal achieved demands.
	for i := range achieved {
		if mt.MatchCount(i) != achieved[i] {
			t.Fatalf("customer %d matched %d times, achieved %d", i, mt.MatchCount(i), achieved[i])
		}
	}
}

func capsOf(facs []data.Facility) []int {
	caps := make([]int, len(facs))
	for j, f := range facs {
		caps[j] = f.Capacity
	}
	return caps
}

func TestMatcherOptimalRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		runScenario(t, rng, false)
	}
}

func TestMatcherOptimalRandomizedExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		runScenario(t, rng, true)
	}
}

// TestExhaustiveAndEarlyStopAgree drives an early-stop matcher and an
// exhaustive one through the same FindPair calls, the way WMA makes
// them: every customer once per round, for several rounds, with
// capacities mostly above one, so later rounds reach customers at
// positive potentials and rewire earlier matches. After every call the
// two must hold the same matches and potentials, and must have
// materialized, searched and augmented equally: the early stop may only
// scan fewer nodes. An early-stop search that augments must settle its
// target facility last, since the first free facility it settles
// decides it.
func TestExhaustiveAndEarlyStopAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		n := 15 + rng.Intn(40)
		g := randomNetwork(rng, n)
		m, l := 2+rng.Intn(6), 2+rng.Intn(5)
		perm := rng.Perm(n)
		custNodes := make([]int32, m)
		for i := range custNodes {
			custNodes[i] = int32(perm[i])
		}
		facs := make([]data.Facility, l)
		for j := range facs {
			facs[j] = data.Facility{Node: int32(perm[m+j]), Capacity: 1 + rng.Intn(4)}
		}
		a := New(g, custNodes, facs)
		b := New(g, custNodes, facs)
		b.SetExhaustive(true)
		rounds := 2 + rng.Intn(4)
		for r := 0; r < rounds; r++ {
			for _, c := range rng.Perm(m) {
				ra, rb := must(a.FindPairCtx(ctx, c)), must(b.FindPairCtx(ctx, c))
				if ra != rb {
					t.Fatalf("trial %d round %d customer %d: early-stop FindPair=%v, exhaustive=%v", trial, r, c, ra, rb)
				}
				if ra {
					if last, target := a.settled[len(a.settled)-1], a.flips[0].fac; last != target {
						t.Fatalf("trial %d round %d customer %d: the search settled node %d after its target facility %d",
							trial, r, c, last, target)
					}
				}
				if ma, mb := matchedSets(a), matchedSets(b); !reflect.DeepEqual(ma, mb) {
					t.Fatalf("trial %d round %d customer %d: matches differ: early stop %v, exhaustive %v", trial, r, c, ma, mb)
				}
				if !slices.Equal(a.pot, b.pot) {
					t.Fatalf("trial %d round %d customer %d: potentials differ: early stop %v, exhaustive %v", trial, r, c, a.pot, b.pot)
				}
				sa, sb := a.Stats(), b.Stats()
				if sa.EdgesMaterialized != sb.EdgesMaterialized || sa.Augmentations != sb.Augmentations || sa.DijkstraRuns != sb.DijkstraRuns {
					t.Fatalf("trial %d round %d customer %d: work differs: early stop %+v, exhaustive %+v", trial, r, c, sa, sb)
				}
			}
		}
		if a.TotalMatchedCost() != b.TotalMatchedCost() {
			t.Fatalf("trial %d: costs differ: %d vs %d", trial, a.TotalMatchedCost(), b.TotalMatchedCost())
		}
		// Early stop must scan no more nodes than exhaustive mode.
		if a.Stats().NodesScanned > b.Stats().NodesScanned {
			t.Fatalf("early stop scanned more nodes (%d) than exhaustive (%d)",
				a.Stats().NodesScanned, b.Stats().NodesScanned)
		}
	}
}

func TestLazyMaterializationPrunes(t *testing.T) {
	// On a long path with many facilities, matching one customer to its
	// nearest facility must not materialize edges to all of them.
	const n = 200
	b := graph.NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, _ := b.Build()
	var facs []data.Facility
	for v := 1; v < n; v += 2 {
		facs = append(facs, data.Facility{Node: int32(v), Capacity: 1})
	}
	mt := New(g, []int32{0}, facs)
	if !must(mt.FindPairCtx(context.Background(), 0)) {
		t.Fatal("FindPair failed")
	}
	if got := mt.Stats().EdgesMaterialized; got > 3 {
		t.Fatalf("materialized %d edges for a single nearest match, want <= 3", got)
	}
	if mt.TotalMatchedCost() != 1 {
		t.Fatalf("cost = %d, want 1", mt.TotalMatchedCost())
	}
}

func TestAccessors(t *testing.T) {
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1, 5).AddEdge(1, 2, 5)
	g, _ := b.Build()
	facs := []data.Facility{{Node: 1, Capacity: 2}}
	mt := New(g, []int32{0, 2}, facs)
	if mt.M() != 2 || mt.L() != 1 {
		t.Fatalf("M=%d L=%d", mt.M(), mt.L())
	}
	must(mt.FindPairCtx(context.Background(), 0))
	must(mt.FindPairCtx(context.Background(), 1))
	if mt.AssignedCount(0) != 2 || mt.MatchCount(0) != 1 || mt.MatchCount(1) != 1 {
		t.Fatalf("AssignedCount=%d MatchCount=%d,%d, want 2 and 1,1", mt.AssignedCount(0), mt.MatchCount(0), mt.MatchCount(1))
	}
	if changed := mt.TakeChanged(); len(changed) != 1 || changed[0] != 0 {
		t.Fatalf("TakeChanged() = %v, want [0]", changed)
	}
	if changed := mt.TakeChanged(); len(changed) != 0 {
		t.Fatalf("TakeChanged() after no change = %v, want []", changed)
	}
	covered := []bool{false, true}
	if n := mt.CountUncovered(0, covered); n != 1 {
		t.Fatalf("CountUncovered with customer 1 covered = %d, want 1", n)
	}
	if n := mt.MarkCovered(0, covered); n != 1 || !covered[0] || !covered[1] {
		t.Fatalf("MarkCovered = %d, covered %v; want 1 newly covered, all covered", n, covered)
	}
	if n := mt.CountUncovered(0, covered); n != 0 {
		t.Fatalf("CountUncovered after MarkCovered = %d, want 0", n)
	}
	facsOf, weights := mt.Matches(0)
	if len(facsOf) != 1 || facsOf[0] != 0 || weights[0] != 5 {
		t.Fatalf("Matches(0) = %v %v", facsOf, weights)
	}
	st := mt.Stats()
	if st.Augmentations != 2 || st.DijkstraRuns == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
