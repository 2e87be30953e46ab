package dynamic

import (
	"fmt"
	"slices"
)

// Published is an immutable view of the assignment a Reallocator is
// currently serving, built for the publish/swap read path of a serving
// process: the writer goroutine calls Publish after each repair batch
// and swaps the result into an atomic pointer, and any number of reader
// goroutines resolve queries against it without locks — nothing in a
// Published value aliases the Reallocator's mutable state.
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

// Publish materializes the current assignment as an immutable view.
// Every slice is freshly allocated, and nothing else is: the caller may
// share the result across goroutines freely. It reads the state only,
// so it succeeds under any context.
func (r *Reallocator) Publish() (*Published, error) {
	n := len(r.live)
	p := &Published{
		Objective:  r.mt.TotalMatchedCost(),
		Selected:   append([]int(nil), r.selected...),
		Handles:    make([]int, n),
		Nodes:      make([]int32, n),
		Assignment: make([]int, n),
	}
	for i, c := range r.live {
		fac, _, ok := r.mt.Match(int(c.idx))
		if !ok {
			return nil, fmt.Errorf("dynamic: customer %d holds %d assignments", c.handle, r.mt.MatchCount(int(c.idx)))
		}
		p.Handles[i] = c.handle
		p.Nodes[i] = c.node
		p.Assignment[i] = r.selected[fac]
	}
	return p, nil
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
