package lint

import "go/ast"

// This file is the fixpoint half of the engine single-writer runs: a
// forward worklist solver over the CFG of cfg.go, generic in the
// per-rule lattice. A rule supplies the four lattice operations; the
// solver owns iteration order and termination. Transfer functions must
// be monotone in the state (a larger input state may only produce a
// larger output state) and the lattice must have finite height — both
// hold for the finite-domain fact map single-writer uses — which
// together guarantee the fixpoint terminates.
type dataflow[S any] struct {
	// seed produces the entry state of the function.
	seed func() S
	// clone deep-copies a state so block-local evolution cannot alias
	// the stored in-state.
	clone func(S) S
	// merge joins src into dst (least upper bound) and reports whether
	// dst changed.
	merge func(dst, src S) bool
	// step applies one statement's transfer effect in place.
	step func(n ast.Node, s S)
}

// fixpoint solves the forward dataflow problem over g and returns the
// in-state of every reachable block. Blocks are processed in creation
// order (a stable approximation of reverse postorder for the
// structured CFGs buildCFG emits), so the result — and therefore every
// finding derived from it — is deterministic.
func (d dataflow[S]) fixpoint(g *cfg) map[*block]S {
	in := make(map[*block]S, len(g.blocks))
	in[g.entry] = d.seed()
	queued := make([]bool, len(g.blocks))
	work := []*block{g.entry}
	queued[g.entry.index] = true
	for len(work) > 0 {
		// Pop the lowest-index queued block: deterministic and close to
		// topological for loop-free regions.
		best := 0
		for i := 1; i < len(work); i++ {
			if work[i].index < work[best].index {
				best = i
			}
		}
		b := work[best]
		work = append(work[:best], work[best+1:]...)
		queued[b.index] = false

		s := d.clone(in[b])
		for _, n := range b.nodes {
			d.step(n, s)
		}
		for _, succ := range b.succs {
			cur, ok := in[succ]
			changed := false
			if !ok {
				in[succ] = d.clone(s)
				changed = true
			} else {
				changed = d.merge(cur, s)
			}
			if changed && !queued[succ.index] {
				queued[succ.index] = true
				work = append(work, succ)
			}
		}
	}
	return in
}
