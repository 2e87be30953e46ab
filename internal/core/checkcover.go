package core

import "slices"

// Coverage is the view of a running customer↔facility assignment that
// the set-cover pass needs. *bipartite.Matcher implements it; the
// WMA-Naïve baseline provides its own greedy implementation.
type Coverage interface {
	// M is the number of customers, L the number of facilities.
	M() int
	L() int
	// AssignedCount returns |σ_j|: how many customers are currently
	// assigned to facility j (never exceeding its capacity).
	AssignedCount(j int) int
	// CountUncovered returns how many customers assigned to facility j
	// are not marked in covered (indexed by customer).
	CountUncovered(j int, covered []bool) int
	// MarkCovered marks every customer assigned to facility j in covered
	// and returns how many were not marked before.
	MarkCovered(j int, covered []bool) int
	// TakeChanged returns each facility whose load changed since the
	// previous call, once each, and starts a new record; the first call
	// lists every facility whose load changed since the view was built.
	// It may also list a facility whose load changed and changed back.
	// The slice is valid until the next load change. Callers must not
	// modify it.
	TakeChanged() []int32
}

// Coverer runs Algorithm 3, CheckCover, once per WMA iteration: a
// lazy-greedy (CELF-style) maximum-coverage pass that selects up to k
// facilities by marginal gain — the number of customers they are
// assigned that no earlier-selected facility covers. Ties break by
// least-recently-selected pass (the paper's diversification strategy:
// facilities never selected first, by index, then selected ones by the
// pass that last selected them and index); TieArbitrary breaks them by
// index alone (ablation).
//
// A Coverer is created once per solve because it carries state between
// passes: every loaded facility sits in the gain bucket of its load,
// under its tie-break key. A pass first moves the facilities whose load
// changed since the last one, as the view's TakeChanged lists them,
// then consumes the buckets from the top. A
// stored gain is at most the facility's load, and a stale one only ever
// drops (coverage grows during a pass), so a re-queued facility lands in
// a lower bucket than the one being consumed. Each bucket is therefore
// final when the pass reaches it: it is sorted by key then, and only
// then, and consumed once, merged with its few sorted re-queues. The
// pops are exactly those of a heap under the total order (gain desc,
// tie-break key asc), so the selection is too. The order in which the
// loads move never reaches the output either, since a bucket is sorted
// when a pass reaches it. A pass costs O(changed + m) for the loads and
// coverage flags, plus the sorts and pops of the buckets it reaches,
// with no allocation but the returned selection.
type Coverer struct {
	view Coverage
	tie  TieBreak
	pass int64 // passes run so far

	// Per facility: load is its load at the last pass and the bucket it
	// sits in (0: none); pos is its position there. key orders ties:
	// pass<<32 | index, where pass is the last pass that selected the
	// facility (0: never), under TieLRU, and the index alone under
	// TieArbitrary. int32(key) recovers the index; keys stay ordered for
	// 2^31 passes.
	load []int32
	pos  []int32
	key  []int64
	// buckets[g] holds the keys of the facilities of load g, in no
	// particular order between passes.
	buckets [][]int64

	// Per-pass scratch. Re-queued facilities form one linked list per
	// gain: requeue[g] heads it (-1 = empty), next[j] links it.
	requeue []int32
	next    []int32 // by facility
	sorted  []int64 // keys of the current bucket's re-queues

	covered []bool // by customer
	deltaD  []bool
}

// NewCoverer returns a Coverer over view, with no facility selected yet.
// It sizes its per-facility state by view.L(), which must not change.
// The Coverer must be the view's only caller of TakeChanged, from the
// view's start: a pass reads only the loads the record lists.
func NewCoverer(view Coverage, tie TieBreak) *Coverer {
	l := view.L()
	c := &Coverer{
		view: view,
		tie:  tie,
		load: make([]int32, l),
		pos:  make([]int32, l),
		key:  make([]int64, l),
		next: make([]int32, l),
	}
	for j := range c.key {
		c.key[j] = int64(j)
	}
	return c
}

// Cover runs one pass of Algorithm 3 with budget k over the view's
// current assignment. It returns the selection, the exploration vector
// Δd (true = customer uncovered, demand should grow), and whether the
// selection covers every customer. Selection stops early once full
// coverage is reached (enabling Algorithm 4) or when remaining gains are
// zero (the leftover budget is better spent by SelectGreedy).
//
// The selection belongs to the caller; deltaD is a Coverer buffer, valid
// until the next pass. Under TieLRU the selection takes the pass's keys,
// so it is the least preferred on the next pass.
func (c *Coverer) Cover(k int) (selection []int, deltaD []bool, covered bool) {
	c.pass++
	for _, j := range c.view.TakeChanged() {
		if g := int32(c.view.AssignedCount(int(j))); g != c.load[j] {
			c.move(j, g)
		}
	}
	loaded := 0
	for _, b := range c.buckets {
		loaded += len(b)
	}
	m := c.view.M()
	c.covered = resize(c.covered, m)
	clear(c.covered)
	remaining := m
	if k > 0 && remaining > 0 && loaded > 0 {
		selection = make([]int, 0, min(k, loaded))
		c.requeue = resize(c.requeue, len(c.buckets))
		for g := range c.requeue {
			c.requeue[g] = -1
		}
		for g := len(c.buckets) - 1; g > 0 && len(selection) < k && remaining > 0; g-- {
			bucket := c.buckets[g]
			slices.Sort(bucket)
			for p, key := range bucket {
				c.pos[int32(key)] = int32(p)
			}
			c.sorted = c.sorted[:0]
			for j := c.requeue[g]; j >= 0; j = c.next[j] {
				c.sorted = append(c.sorted, c.key[j])
			}
			slices.Sort(c.sorted)
			requeued := c.sorted
			// Pop keys in ascending order from the merge of the two sorted
			// lists until the bucket drains or the pass ends.
			for len(selection) < k && remaining > 0 && (len(bucket) > 0 || len(requeued) > 0) {
				var key int64
				if len(requeued) == 0 || (len(bucket) > 0 && bucket[0] < requeued[0]) {
					key, bucket = bucket[0], bucket[1:]
				} else {
					key, requeued = requeued[0], requeued[1:]
				}
				j := int32(key)
				if gain := c.view.CountUncovered(int(j), c.covered); gain != g {
					if gain > 0 {
						c.next[j] = c.requeue[gain]
						c.requeue[gain] = j
					}
					continue
				}
				selection = append(selection, int(j))
				remaining -= c.view.MarkCovered(int(j), c.covered)
				if c.tie == TieLRU {
					// Its bucket was consumed up to here, so the new key
					// cannot reorder this pass.
					c.key[j] = c.pass<<32 | int64(j)
					c.buckets[c.load[j]][c.pos[j]] = c.key[j]
				}
			}
		}
	}
	c.deltaD = resize(c.deltaD, m)
	for i, cov := range c.covered {
		c.deltaD[i] = !cov
	}
	return selection, c.deltaD, remaining == 0
}

// move moves facility j from the bucket of its stored load to bucket g,
// swap-removing it from the old one.
func (c *Coverer) move(j, g int32) {
	if old := c.load[j]; old > 0 {
		b := c.buckets[old]
		last, p := b[len(b)-1], c.pos[j]
		b[p] = last
		c.pos[int32(last)] = p
		c.buckets[old] = b[:len(b)-1]
	}
	c.load[j] = g
	if g > 0 {
		for int(g) >= len(c.buckets) {
			c.buckets = append(c.buckets, nil)
		}
		c.pos[j] = int32(len(c.buckets[g]))
		c.buckets[g] = append(c.buckets[g], c.key[j])
	}
}

// resize returns s with length n, reusing its backing array when large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
