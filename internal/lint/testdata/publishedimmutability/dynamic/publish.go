// Package dynamic is the fixture stand-in for the module's dynamic
// layer: it owns the Published view type and its constructor.
package dynamic

// Published mirrors the real immutable view: scalar fields plus
// slice/map backing storage shared with every reader holding the
// snapshot.
type Published struct {
	Objective int64
	Selected  []int
	pos       map[int]int
}

// View mirrors the real frozen paged view: its pages stay shared with
// the Reallocator's live table, which copies a page before writing it.
type View struct {
	objective int64
	pages     []*page
}

type page struct {
	nodes []int32
}

// Reallocator is the mutable state Publish and Freeze snapshot.
type Reallocator struct {
	selected []int
	pages    []*page
}

// Freeze builds a fresh view over the shared pages: the composite
// literal makes it owned, so setting its objective is not a finding.
func (r *Reallocator) Freeze() *View {
	v := &View{pages: r.pages}
	v.objective = int64(len(r.pages))
	return v
}

// repin writes through a frozen view, inside the package that owns the
// type: readers hold the view, and its pages are the live table's.
func repin(v *View, node int32) {
	v.objective = 0            // want "write to field objective of a published view"
	v.pages[0].nodes[0] = node // want "element write into a published view's backing array"
}

// Publish builds a fresh view: the composite literal makes it owned,
// so the construction writes below are not findings.
func (r *Reallocator) Publish() *Published {
	p := &Published{
		Selected: append([]int(nil), r.selected...),
		pos:      make(map[int]int, len(r.selected)),
	}
	for i, s := range p.Selected {
		p.pos[s] = i // filling an owned view before return: fine
	}
	p.Objective = int64(len(p.Selected))
	return p
}

// Clone deep-copies a view; its result is owned by convention.
func (p *Published) Clone() *Published {
	return &Published{
		Objective: p.Objective,
		Selected:  append([]int(nil), p.Selected...),
	}
}

// retarget mutates a live view in place — exactly what the swap
// discipline forbids.
func retarget(p *Published, sel []int) {
	p.Objective = 1        // want "write to field Objective of a published view"
	p.Selected[0] = sel[0] // want "element write into a published view's backing array"
	copy(p.Selected, sel)  // want "copy() into a published view's backing array"
}

// reclone heals: after rebinding to a Clone the value is owned.
func reclone(p *Published) *Published {
	p = p.Clone()
	p.Objective = 2 // owned since the Clone: no finding
	return p
}
