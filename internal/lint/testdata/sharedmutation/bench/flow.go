// flow.go exercises the v3 engine: flow-sensitive facts (rebinding
// heals, branch joins merge, loop back edges propagate, a range body is
// judged once under its own state, a call in a condition is followed)
// and callees in other packages (writes in fix/graph and fix/data are
// reported where they happen; fresh results are owned, a returned
// parameter stays shared).
package bench

import (
	"fix/data"
	"fix/graph"
)

func flowSweep(p *pool, pt point, cond bool, n int) {
	p.cell(func() {
		inst := pt.inst()
		inst = inst.Clone()
		inst.K = 5 // rebinding healed it: owned from the Clone on
		use(inst)
	})
	p.cell(func() {
		inst := pt.inst().Clone()
		if cond {
			inst = pt.inst()
		}
		inst.K = 1 // want "write to field K of a pool-shared instance"
		use(inst)
	})
	p.cell(func() {
		cl := pt.inst().Clone()
		for i := 0; i < n; i++ {
			cl.Customers[0] = 1 // want "element write into a pool-shared backing array"
			cl = pt.inst()      // shared flows around the back edge into the next iteration
		}
	})
	p.cell(func() {
		inst := pt.inst()
		graph.Scale(inst.G, 2) // reported at the write inside graph.Scale
		use(inst)
	})
	p.cell(func() {
		pt.inst().G.Reset() // reported at the write inside graph.Reset
	})
	p.cell(func() {
		own := data.Fresh(3) // fresh across the package boundary: owned
		own.K = 7
		own.Customers[0] = 1
		use(own)
	})
	p.cell(func() {
		inst := pt.inst()
		data.Touch(inst) // reported at the write inside data.Touch
	})
	p.cell(func() {
		inst := pt.inst()
		_ = graph.Degree(inst.G, 0) // read-only callee: no finding
		v := graph.View(inst.G)
		v.Adj[0][0] = 9 // want "element write into a pool-shared backing array"
		row := graph.Row(inst.G, 0)
		row[1] = 9 // want "element write into a pool-shared backing array"
	})
	p.cell(func() {
		w := pt.inst().G.WithN(3) // a value copy: its fields are its own
		w.N = 4
		w.Adj[0][0] = 1 // want "element write into a pool-shared backing array"
	})
	p.cell(func() {
		inst := pt.inst()
		for i := range inst.Customers {
			inst.Customers[i] = 0 // want "element write into a pool-shared backing array"
		}
	})
	p.cell(func() {
		inst := pt.inst()
		for range inst.Customers {
			inst = inst.Clone()
			inst.K = 4 // healed on entry to the body: owned
		}
		use(inst)
	})
	p.cell(func() {
		inst := pt.inst()
		if bump(inst) { // the call in the condition is followed
			use(inst)
		}
	})
}

// bump is reached only from an if condition.
func bump(in *data.Instance) bool {
	in.K++ // want "write to field K of a pool-shared instance"
	return in.K > 3
}
