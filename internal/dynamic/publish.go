package dynamic

import (
	"cmp"
	"math/bits"
	"slices"

	"mcfs/internal/graph"
)

// pageSize is how many consecutive handles one page of the live table
// covers: a page's live set is one uint64 bit mask.
const pageSize = 64

// entry is one live customer: its network node, its matcher index and
// the catalogue facility serving it.
type entry struct {
	node int32
	idx  int32
	fac  int32
}

// page holds the live customers among handles [key·pageSize,
// (key+1)·pageSize): bit s of live is set when handle key·pageSize+s is
// live, and ents lists those customers in handle order, so a handle's
// entry is at the number of live bits below its own. gen is the table
// generation that made the page; only that generation may write it.
type page struct {
	key  int
	live uint64
	gen  uint64
	ents []entry
}

// table is the live population, a persistent copy-on-write paged table:
// the non-empty pages in ascending key order. Freeze shares the pages
// and the page list with the view it returns and starts a new
// generation; the writer then copies a page, or the list, on its first
// write to it since the freeze (own, ownList), so a frozen view never
// changes. No page is ever split or merged: an arrival appends to the
// last page and a departure deletes its entry, dropping the page once it
// is empty. Memory stays proportional to the population, and a batch
// copies only the pages it wrote, and the list once.
type table struct {
	pages   []*page
	n       int    // live customers
	gen     uint64 // current generation
	listGen uint64 // generation that made pages' backing array
}

// slot returns handle's position: the index of its page in pages, the
// handle's bit, and whether the handle is live.
func (t *table) slot(handle int) (i int, bit uint64, ok bool) {
	if handle < 0 {
		return 0, 0, false
	}
	i, ok = slices.BinarySearchFunc(t.pages, handle/pageSize, func(p *page, key int) int { return cmp.Compare(p.key, key) })
	if !ok {
		return 0, 0, false
	}
	bit = 1 << (handle % pageSize)
	return i, bit, t.pages[i].live&bit != 0
}

// rank returns the position in p.ents of the live handle with bit.
func (p *page) rank(bit uint64) int { return bits.OnesCount64(p.live & (bit - 1)) }

// get returns live handle's entry; ok is false for a handle not live.
func (t *table) get(handle int) (e entry, ok bool) {
	i, bit, ok := t.slot(handle)
	if !ok {
		return entry{}, false
	}
	p := t.pages[i]
	return p.ents[p.rank(bit)], true
}

// ownList makes the page list writable: the current generation's own
// copy.
func (t *table) ownList() {
	if t.listGen != t.gen {
		t.pages = slices.Clone(t.pages)
		t.listGen = t.gen
	}
}

// own returns page i, writable: a copy the current generation makes on
// its first write to the page.
func (t *table) own(i int) *page {
	p := t.pages[i]
	if p.gen == t.gen {
		return p
	}
	t.ownList()
	q := &page{key: p.key, live: p.live, gen: t.gen, ents: slices.Clone(p.ents)}
	t.pages[i] = q
	return q
}

// at returns live handle's entry, writable.
func (t *table) at(handle int) *entry {
	i, bit, _ := t.slot(handle)
	p := t.own(i)
	return &p.ents[p.rank(bit)]
}

// add appends handle's entry e; handle must exceed every live handle.
func (t *table) add(handle int, e entry) {
	key := handle / pageSize
	if n := len(t.pages); n == 0 || t.pages[n-1].key != key {
		t.ownList()
		t.pages = append(t.pages, &page{key: key, gen: t.gen})
	}
	p := t.own(len(t.pages) - 1)
	p.live |= 1 << (handle % pageSize)
	p.ents = append(p.ents, e)
	t.n++
}

// delete removes live handle's entry, and its page once empty.
func (t *table) delete(handle int) {
	i, bit, _ := t.slot(handle)
	p := t.own(i)
	r := p.rank(bit)
	p.ents = slices.Delete(p.ents, r, r+1)
	p.live &^= bit
	if p.live == 0 {
		t.ownList()
		t.pages = slices.Delete(t.pages, i, i+1)
	}
	t.n--
}

// population returns the live customers' handles and network nodes in
// handle order.
func (t *table) population() (handles []int, nodes []int32) {
	handles = make([]int, 0, t.n)
	nodes = make([]int32, 0, t.n)
	t.each(func(h int, e entry) {
		handles = append(handles, h)
		nodes = append(nodes, e.node)
	})
	return handles, nodes
}

// each calls fn for every live customer in ascending handle order.
func (t *table) each(fn func(handle int, e entry)) {
	for _, p := range t.pages {
		live := p.live
		for _, e := range p.ents {
			s := bits.TrailingZeros64(live)
			live &= live - 1
			fn(p.key*pageSize+s, e)
		}
	}
}

// View is a frozen state of everything a Reallocator serves: the
// assignment, the drift baseline, the work counters, the next handle and
// the instance fingerprint. Freeze builds one for the publish/swap read
// path of a serving process: the writer freezes a view after each repair
// batch and swaps it into an atomic pointer, and any number of reader
// goroutines answer queries and take snapshots from it without locks.
// Nothing in a view is ever written again. Another package cannot write
// one of its fields, since none is exported; inside this package, the
// view shares the live table's pages and the open selection with the
// Reallocator, which copies a page before its first write after the
// freeze and replaces, never edits, its selection.
type View struct {
	objective int64
	base      int64
	selected  []int
	tab       table
	stats     Stats
	nextID    int
	// The instance fingerprint a Snapshot records.
	g          *graph.Graph
	facilities int
	k          int
}

// view returns the current state as a View that shares the live table
// and the selection: Freeze makes that sharing safe, and Publish and
// Snapshot copy out of the view before the next write.
func (r *Reallocator) view() View {
	return View{
		objective:  r.mt.TotalMatchedCost(),
		base:       r.baseObjective,
		selected:   r.selected,
		tab:        r.tab,
		stats:      r.stats,
		nextID:     r.nextID,
		g:          r.g,
		facilities: len(r.facilities),
		k:          r.k,
	}
}

// Freeze returns the current state as a View, in O(1). The
// Reallocator's next write to each page of the live table, and to the
// page list, copies it first, so a batch between two views costs the
// pages it touched, not the population.
func (r *Reallocator) Freeze() *View {
	v := r.view()
	r.tab.gen++
	return &v
}

// Objective returns the total assignment distance of the view.
func (v *View) Objective() int64 { return v.objective }

// BaseObjective returns the view's drift baseline: the objective right
// after the last full solve, adoption, or restore.
func (v *View) BaseObjective() int64 { return v.base }

// Stats returns the view's work counters.
func (v *View) Stats() Stats { return v.stats }

// Customers returns the number of customers in the view.
func (v *View) Customers() int { return v.tab.n }

// Lookup resolves a customer handle to its network node and assigned
// catalogue facility index; ok is false for handles not in the view. It
// finds the handle's page by binary search over the non-empty pages and
// its entry by the page's bit mask.
func (v *View) Lookup(handle int) (node int32, facility int, ok bool) {
	e, ok := v.tab.get(handle)
	return e.node, int(e.fac), ok
}

// Flatten materializes the view as a flat Published, every slice freshly
// allocated.
func (v *View) Flatten() *Published {
	p := &Published{
		Objective:  v.objective,
		Selected:   slices.Clone(v.selected),
		Handles:    make([]int, 0, v.tab.n),
		Nodes:      make([]int32, 0, v.tab.n),
		Assignment: make([]int, 0, v.tab.n),
	}
	v.tab.each(func(h int, e entry) {
		p.Handles = append(p.Handles, h)
		p.Nodes = append(p.Nodes, e.node)
		p.Assignment = append(p.Assignment, int(e.fac))
	})
	return p
}

// Published is the flat form of a View: parallel slices over the whole
// population, built on demand by Publish and View.Flatten. Nothing in
// it aliases the Reallocator, so the caller may share it across
// goroutines freely.
type Published struct {
	// Objective is the total assignment distance being served.
	Objective int64
	// Selected holds the open facilities as candidate-catalogue indexes.
	Selected []int
	// Handles, Nodes and Assignment are parallel: customer Handles[i]
	// sits at network node Nodes[i] and is served by catalogue facility
	// Assignment[i]. Handles ascend, which Lookup relies on.
	Handles    []int
	Nodes      []int32
	Assignment []int
}

// Publish materializes the current assignment as a flat view, copying
// the whole population. It freezes nothing, so it costs the writer no
// later copies, and it reads the state only, so it succeeds under any
// context. The error is always nil; it is kept for API stability.
func (r *Reallocator) Publish() (*Published, error) {
	v := r.view()
	return v.Flatten(), nil
}

// Customers returns the number of customers in the view.
func (p *Published) Customers() int { return len(p.Handles) }

// Lookup resolves a customer handle to its network node and assigned
// catalogue facility index; ok is false for handles not in the view.
// Safe for concurrent use (the view is immutable).
func (p *Published) Lookup(handle int) (node int32, facility int, ok bool) {
	i, ok := slices.BinarySearch(p.Handles, handle)
	if !ok {
		return 0, 0, false
	}
	return p.Nodes[i], p.Assignment[i], true
}

// BaseObjective returns the drift baseline: the objective right after
// the last full solve, adoption, or restore.
func (r *Reallocator) BaseObjective() int64 { return r.baseObjective }
