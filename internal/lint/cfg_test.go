package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as the body of a function and returns it.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	file := "package p\nfunc f() {\n" + src + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", file, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// markersIn collects the marker-call names (calls to identifiers
// starting with "mark") stored in a block's statements.
func markersIn(b *block) []string {
	var out []string
	for _, n := range b.nodes {
		ast.Inspect(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && strings.HasPrefix(id.Name, "mark") {
				out = append(out, id.Name)
			}
			return true
		})
	}
	return out
}

// cfgFacts computes, for each marker, whether it is reachable from the
// entry block, by walking successor edges.
func cfgFacts(g *cfg) map[string]bool {
	reach := make(map[*block]bool)
	var visit func(b *block)
	visit = func(b *block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.succs {
			visit(s)
		}
	}
	visit(g.entry)
	facts := make(map[string]bool)
	for _, b := range g.blocks {
		for _, m := range markersIn(b) {
			facts[m] = facts[m] || reach[b]
		}
	}
	return facts
}

// TestCFGStatementCoverage: every simple statement of the source, and
// every condition, switch tag and case expression, lands in exactly one
// block, so no write or call can be skipped by the lowering.
func TestCFGStatementCoverage(t *testing.T) {
	body := parseBody(t, `
		markA()
		if markIf() {
			markB()
		} else {
			markC()
		}
		for i := 0; markFor(i); i++ {
			markD()
		}
		switch markTag() {
		case markCase():
			markE()
		default:
			markF()
		}
		markG()
	`)
	g := buildCFG(body)
	counts := make(map[string]int)
	for _, b := range g.blocks {
		for _, m := range markersIn(b) {
			counts[m]++
		}
	}
	for _, m := range []string{"markA", "markB", "markC", "markD", "markE", "markF", "markG", "markIf", "markFor", "markTag", "markCase"} {
		if counts[m] != 1 {
			t.Errorf("marker %s stored %d times, want 1", m, counts[m])
		}
	}
}

// TestCFGReachability: branches, loop bodies, and the statement after a
// branchy region are reachable; code after an unconditional return is
// not (but still present for scanning).
func TestCFGReachability(t *testing.T) {
	body := parseBody(t, `
		if cond() {
			markThen()
			return
		}
		markAfter()
		return
		markDead()
	`)
	facts := cfgFacts(buildCFG(body))
	for m, want := range map[string]bool{"markThen": true, "markAfter": true, "markDead": false} {
		if facts[m] != want {
			t.Errorf("marker %s reachable = %v, want %v", m, facts[m], want)
		}
	}
	if !strings.Contains(strings.Join(allMarkers(buildCFG(body)), " "), "markDead") {
		t.Error("dead code dropped from the CFG entirely; it must stay scannable")
	}
}

func allMarkers(g *cfg) []string {
	var out []string
	for _, b := range g.blocks {
		out = append(out, markersIn(b)...)
	}
	return out
}

// TestCFGLoopBackEdge: a for-loop body has a path back to the loop
// head, so facts established in the body flow around the loop.
func TestCFGLoopBackEdge(t *testing.T) {
	body := parseBody(t, `
		for cond() {
			markBody()
		}
		markAfter()
	`)
	g := buildCFG(body)
	var bodyBlk *block
	for _, b := range g.blocks {
		for _, m := range markersIn(b) {
			if m == "markBody" {
				bodyBlk = b
			}
		}
	}
	if bodyBlk == nil {
		t.Fatal("loop body block not found")
	}
	// From the body block, the body itself must be re-reachable (the
	// back edge through post and head).
	seen := make(map[*block]bool)
	var visit func(b *block) bool
	visit = func(b *block) bool {
		for _, s := range b.succs {
			if s == bodyBlk {
				return true
			}
			if !seen[s] {
				seen[s] = true
				if visit(s) {
					return true
				}
			}
		}
		return false
	}
	if !visit(bodyBlk) {
		t.Error("no back edge from loop body to itself")
	}
}

// TestCFGBranchTargets: break/continue (plain and labeled), goto, and
// fallthrough produce the right reachability.
func TestCFGBranchTargets(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want map[string]bool
	}{
		{
			name: "break",
			src: `
				for {
					if cond() {
						break
					}
					markLoop()
				}
				markAfter()
			`,
			want: map[string]bool{"markLoop": true, "markAfter": true},
		},
		{
			name: "continue skips tail",
			src: `
				for cond() {
					if cond2() {
						continue
					}
					markTail()
				}
				markAfter()
			`,
			want: map[string]bool{"markTail": true, "markAfter": true},
		},
		{
			name: "labeled break exits outer loop",
			src: `
			outer:
				for {
					for {
						break outer
					}
				}
				markAfter()
			`,
			want: map[string]bool{"markAfter": true},
		},
		{
			name: "goto forward",
			src: `
				goto done
				markSkipped()
			done:
				markDone()
			`,
			want: map[string]bool{"markSkipped": false, "markDone": true},
		},
		{
			name: "fallthrough chains cases",
			src: `
				switch v() {
				case 1:
					markOne()
					fallthrough
				case 2:
					markTwo()
				}
				markAfter()
			`,
			want: map[string]bool{"markOne": true, "markTwo": true, "markAfter": true},
		},
		{
			name: "select comm clauses",
			src: `
				select {
				case <-ch:
					markRecv()
				default:
					markDefault()
				}
				markAfter()
			`,
			want: map[string]bool{"markRecv": true, "markDefault": true, "markAfter": true},
		},
		{
			name: "range may run zero times",
			src: `
				for range xs() {
					markBody()
				}
				markAfter()
			`,
			want: map[string]bool{"markBody": true, "markAfter": true},
		},
		{
			name: "switch without default falls through",
			src: `
				switch v() {
				case 1:
					return
				}
				markAfter()
			`,
			want: map[string]bool{"markAfter": true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			facts := cfgFacts(buildCFG(parseBody(t, tc.src)))
			for m, want := range tc.want {
				if facts[m] != want {
					t.Errorf("marker %s reachable = %v, want %v", m, facts[m], want)
				}
			}
		})
	}
}

// TestCFGDeterministic: building the same body twice yields identical
// block/edge structure (by index), the property the fixpoint's ordered
// worklist relies on.
func TestCFGDeterministic(t *testing.T) {
	src := `
		for i := 0; i < 3; i++ {
			if cond() {
				continue
			}
			markA()
		}
		switch v() {
		case 1:
			markB()
		}
	`
	shape := func(g *cfg) string {
		var sb strings.Builder
		for _, b := range g.blocks {
			sb.WriteString("b")
			for _, s := range b.succs {
				sb.WriteByte(' ')
				sb.WriteString(strings.Repeat("x", s.index+1))
			}
			sb.WriteByte(';')
		}
		return sb.String()
	}
	a := shape(buildCFG(parseBody(t, src)))
	b := shape(buildCFG(parseBody(t, src)))
	if a != b {
		t.Errorf("non-deterministic CFG:\n%s\n%s", a, b)
	}
}
