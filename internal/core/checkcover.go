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
	// Touched returns every facility that has ever held an assignment —
	// the only candidates with possible nonzero gain — in first-touch
	// order. The list is append-only: a later call returns an extension
	// of an earlier one. Callers must not modify it.
	Touched() []int32
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
// passes: the tie-break order over touched facilities, and buffers that
// make a pass allocation-free apart from the returned selection. The
// pass keeps its candidates in gain buckets rather than a heap. A stored
// gain is at most the facility's load, and a stale one only ever drops
// (coverage grows during a pass), so a re-queued facility lands in a
// lower bucket than the one being consumed. Each bucket is therefore
// final when the pass reaches it and is consumed once, in tie-break
// order, merging the initial entries (already in order) with its few
// sorted re-queues. The pops are exactly those of a heap under the total
// order (gain desc, tie-break rank asc), so the selection is too; a pass
// costs O(touched + m + pops) with no log factor.
type Coverer struct {
	view Coverage
	tie  TieBreak

	// order lists the touched facilities in tie-break order: the first
	// fresh entries were never selected and are sorted by index; the rest
	// were selected, least recently first, by index within a pass. The
	// position of a facility is its rank. merged counts the prefix of
	// view.Touched() already in order.
	order  []int32
	fresh  int
	merged int

	// Per-pass scratch, indexed by rank unless noted. Buckets are laid
	// out by gain descending in byGain: bucket g is byGain[start[g]:
	// start[g]+count[g]], ranks ascending. Re-queued ranks form one
	// linked list per bucket: requeue[g] heads it (-1 = empty), next[r]
	// links it.
	load    []int32
	byGain  []int32
	start   []int32
	count   []int32
	requeue []int32
	next    []int32
	sorted  []int32 // re-queues of the current bucket; also merge scratch
	spare   []int32 // second order buffer, swapped in when merging
	picked  []bool  // by facility: selected in the current pass

	covered []bool // by customer
	deltaD  []bool
}

// NewCoverer returns a Coverer over view, with no facility selected yet.
func NewCoverer(view Coverage, tie TieBreak) *Coverer {
	return &Coverer{view: view, tie: tie}
}

// Cover runs one pass of Algorithm 3 with budget k over the view's
// current assignment. It returns the selection, the exploration vector
// Δd (true = customer uncovered, demand should grow), and whether the
// selection covers every customer. Selection stops early once full
// coverage is reached (enabling Algorithm 4) or when remaining gains are
// zero (the leftover budget is better spent by SelectGreedy).
//
// The selection belongs to the caller; deltaD is a Coverer buffer, valid
// until the next pass. Under TieLRU the selection moves to the back of
// the tie-break order, so it is the least preferred on the next pass.
func (c *Coverer) Cover(k int) (selection []int, deltaD []bool, covered bool) {
	m := c.view.M()
	c.mergeTouched()
	c.covered = resize(c.covered, m)
	clear(c.covered)
	remaining := m
	if k > 0 && remaining > 0 {
		maxLoad := c.fillBuckets()
		if len(c.byGain) > 0 {
			selection = make([]int, 0, min(k, len(c.byGain)))
		}
		for g := maxLoad; g > 0 && len(selection) < k && remaining > 0; g-- {
			bucket := c.byGain[c.start[g] : c.start[g]+c.count[g]]
			c.sorted = c.sorted[:0]
			for r := c.requeue[g]; r >= 0; r = c.next[r] {
				c.sorted = append(c.sorted, r)
			}
			slices.Sort(c.sorted)
			requeued := c.sorted
			// Pop ranks in ascending order from the merge of the two
			// sorted lists until the bucket drains or the pass ends.
			for len(selection) < k && remaining > 0 && (len(bucket) > 0 || len(requeued) > 0) {
				var r int32
				if len(requeued) == 0 || (len(bucket) > 0 && bucket[0] < requeued[0]) {
					r, bucket = bucket[0], bucket[1:]
				} else {
					r, requeued = requeued[0], requeued[1:]
				}
				j := int(c.order[r])
				if gain := c.view.CountUncovered(j, c.covered); gain != g {
					if gain > 0 {
						c.next[r] = c.requeue[gain]
						c.requeue[gain] = r
					}
					continue
				}
				selection = append(selection, j)
				remaining -= c.view.MarkCovered(j, c.covered)
			}
		}
	}
	if c.tie == TieLRU {
		c.moveToBack(selection)
	}
	c.deltaD = resize(c.deltaD, m)
	for i, cov := range c.covered {
		c.deltaD[i] = !cov
	}
	return selection, c.deltaD, remaining == 0
}

// mergeTouched adds the facilities touched since the last pass to the
// fresh prefix of the order, keeping it sorted by index. They have never
// been selected, so under either tie-break they rank by index among the
// other never-selected facilities.
func (c *Coverer) mergeTouched() {
	touched := c.view.Touched()
	if c.merged == len(touched) {
		return
	}
	c.sorted = append(c.sorted[:0], touched[c.merged:]...)
	c.merged = len(touched)
	slices.Sort(c.sorted)
	added := c.sorted
	fresh, used := c.order[:c.fresh], c.order[c.fresh:]
	out := c.spare[:0]
	for len(fresh) > 0 && len(added) > 0 {
		if fresh[0] < added[0] {
			out, fresh = append(out, fresh[0]), fresh[1:]
		} else {
			out, added = append(out, added[0]), added[1:]
		}
	}
	out = append(append(out, fresh...), added...)
	c.fresh = len(out)
	c.order, c.spare = append(out, used...), c.order
}

// fillBuckets distributes the ranks with nonzero load into gain buckets
// by counting sort and returns the largest load.
func (c *Coverer) fillBuckets() int {
	n := len(c.order)
	c.load = resize(c.load, n)
	c.next = resize(c.next, n)
	maxLoad := 0
	for r, j := range c.order {
		g := c.view.AssignedCount(int(j))
		c.load[r] = int32(g)
		maxLoad = max(maxLoad, g)
	}
	c.start = resize(c.start, maxLoad+1)
	c.count = resize(c.count, maxLoad+1)
	c.requeue = resize(c.requeue, maxLoad+1)
	clear(c.count)
	for g := range c.requeue {
		c.requeue[g] = -1
	}
	filled := 0
	for _, g := range c.load {
		if g > 0 {
			c.count[g]++
			filled++
		}
	}
	at := int32(0)
	for g := maxLoad; g > 0; g-- {
		c.start[g] = at
		at += c.count[g]
	}
	c.byGain = resize(c.byGain, filled)
	clear(c.count)
	for r, g := range c.load {
		if g > 0 {
			c.byGain[c.start[g]+c.count[g]] = int32(r)
			c.count[g]++
		}
	}
	return maxLoad
}

// moveToBack moves the selection to the end of the order, sorted by
// index: it is now the most recently selected group.
func (c *Coverer) moveToBack(selection []int) {
	if len(selection) == 0 {
		return
	}
	c.picked = resize(c.picked, c.view.L())
	for _, j := range selection {
		c.picked[j] = true
	}
	kept := c.order[:0]
	fresh := 0
	for r, j := range c.order {
		if c.picked[j] {
			continue
		}
		if r < c.fresh {
			fresh++
		}
		kept = append(kept, j)
	}
	c.fresh = fresh
	tail := len(kept)
	for _, j := range selection {
		kept = append(kept, int32(j))
		c.picked[j] = false
	}
	slices.Sort(kept[tail:])
	c.order = kept
}

// resize returns s with length n, reusing its backing array when large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
