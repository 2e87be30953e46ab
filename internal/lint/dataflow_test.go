package lint

import (
	"go/ast"
	"strings"
	"testing"
)

// The dataflow tests run a tiny taint analysis over real Go bodies:
// `x = taint()` marks x, `x = clean()` clears it, and the test asserts
// whether taint can reach each `sinkN(x)` call. This exercises exactly
// what single-writer's held-writer analysis needs from the solver:
// strong updates, merging at joins, and propagation around loop back
// edges.

type taintState map[string]bool

// runTaint solves the taint problem and returns, per sink name, whether
// the named variable may be tainted there.
func runTaint(t *testing.T, src string) map[string]bool {
	t.Helper()
	body := parseBody(t, src)
	g := buildCFG(body)

	var classify func(s taintState, e ast.Expr) bool
	classify = func(s taintState, e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return s[e.Name]
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok {
				if id.Name == "taint" {
					return true
				}
				if id.Name == "clean" {
					return false
				}
			}
			// propagate through wrap(x)-style calls
			for _, a := range e.Args {
				if classify(s, a) {
					return true
				}
			}
			return false
		}
		return false
	}
	step := func(n ast.Node, s taintState) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i := range as.Lhs {
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if classify(s, as.Rhs[i]) {
					s[id.Name] = true
				} else {
					delete(s, id.Name) // strong update
				}
			}
		}
	}

	d := dataflow[taintState]{
		seed: func() taintState { return taintState{} },
		clone: func(s taintState) taintState {
			out := make(taintState, len(s))
			for k, v := range s {
				out[k] = v
			}
			return out
		},
		merge: func(dst, src taintState) bool {
			changed := false
			for k := range src {
				if !dst[k] {
					dst[k] = true
					changed = true
				}
			}
			return changed
		},
		step: step,
	}
	in := d.fixpoint(g)

	sinks := make(map[string]bool)
	for _, b := range g.blocks {
		s, ok := in[b]
		if !ok {
			s = taintState{}
		}
		cur := make(taintState, len(s))
		for k, v := range s {
			cur[k] = v
		}
		for _, n := range b.nodes {
			ast.Inspect(n, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || !strings.HasPrefix(id.Name, "sink") {
					return true
				}
				tainted := false
				for _, a := range call.Args {
					tainted = tainted || classify(cur, a)
				}
				sinks[id.Name] = sinks[id.Name] || tainted
				return true
			})
			step(n, cur)
		}
	}
	return sinks
}

func TestDataflowStraightLine(t *testing.T) {
	sinks := runTaint(t, `
		x := taint()
		sinkA(x)
		x = clean()
		sinkB(x)
	`)
	if !sinks["sinkA"] {
		t.Error("sinkA: taint lost on the straight-line path")
	}
	if sinks["sinkB"] {
		t.Error("sinkB: strong update by clean() did not clear the fact")
	}
}

func TestDataflowBranchJoin(t *testing.T) {
	// Tainted on one arm only: the join must keep the taint (may-
	// analysis), but a branch that cleans on BOTH arms clears it.
	sinks := runTaint(t, `
		x := clean()
		if cond() {
			x = taint()
		}
		sinkJoin(x)
		if cond() {
			x = clean()
		} else {
			x = clean()
		}
		sinkClean(x)
	`)
	if !sinks["sinkJoin"] {
		t.Error("sinkJoin: taint from one branch arm lost at the join")
	}
	if sinks["sinkClean"] {
		t.Error("sinkClean: taint survived although both arms cleaned")
	}
}

func TestDataflowPathSensitivity(t *testing.T) {
	// The else arm never sees the then arm's taint: facts are per
	// program point, not per function.
	sinks := runTaint(t, `
		x := clean()
		if cond() {
			x = taint()
			sinkThen(x)
		} else {
			sinkElse(x)
		}
	`)
	if !sinks["sinkThen"] {
		t.Error("sinkThen: taint missing on its own arm")
	}
	if sinks["sinkElse"] {
		t.Error("sinkElse: taint leaked across sibling branch arms")
	}
}

func TestDataflowLoopBackEdge(t *testing.T) {
	// Taint established late in the body must reach the top of the
	// body on the next iteration — only a fixpoint sees this.
	sinks := runTaint(t, `
		x := clean()
		for cond() {
			sinkTop(x)
			x = taint()
		}
		sinkAfter(x)
	`)
	if !sinks["sinkTop"] {
		t.Error("sinkTop: taint did not flow around the loop back edge")
	}
	if !sinks["sinkAfter"] {
		t.Error("sinkAfter: taint lost on loop exit")
	}
}

func TestDataflowLoopReassignHeals(t *testing.T) {
	// A clean() at the top of the body shields the rest of the body
	// regardless of what the previous iteration did.
	sinks := runTaint(t, `
		x := taint()
		for cond() {
			x = clean()
			sinkBody(x)
		}
	`)
	if sinks["sinkBody"] {
		t.Error("sinkBody: taint survived an unconditional reassignment")
	}
}

func TestDataflowSwitchAndGoto(t *testing.T) {
	sinks := runTaint(t, `
		x := clean()
		switch v() {
		case 1:
			x = taint()
			fallthrough
		case 2:
			sinkFall(x)
		case 3:
			sinkCase3(x)
		}
	retry:
		sinkLabel(x)
		if cond() {
			x = taint()
			goto retry
		}
	`)
	if !sinks["sinkFall"] {
		t.Error("sinkFall: taint did not follow fallthrough")
	}
	if sinks["sinkCase3"] {
		t.Error("sinkCase3: taint leaked into a sibling case")
	}
	if !sinks["sinkLabel"] {
		t.Error("sinkLabel: taint did not follow the goto back edge")
	}
}

func TestDataflowDeterministic(t *testing.T) {
	src := `
		x := clean()
		y := clean()
		for cond() {
			if cond2() {
				x = taint()
			} else {
				y = wrap(x)
			}
			sinkX(x)
			sinkY(y)
		}
	`
	first := runTaint(t, src)
	for i := 0; i < 10; i++ {
		again := runTaint(t, src)
		for k, v := range first {
			if again[k] != v {
				t.Fatalf("run %d: sink %s flipped from %v to %v", i, k, v, again[k])
			}
		}
	}
}
