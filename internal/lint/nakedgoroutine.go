package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NakedGoroutine keeps concurrency confined to joinable structure: a
// `go` statement is only allowed when the enclosing top-level function
// visibly joins its goroutines — a sync.WaitGroup Wait() or a channel
// receive in scope. The one sanctioned exception is the bench harness's
// worker pool (internal/bench/parallel.go), whose goroutines are joined
// across function boundaries by pool.drain; every other fire-and-forget
// goroutine is a leak or a race waiting for the next refactor.
//
// A `.Wait()` call only counts as a join when its receiver actually is
// a sync.WaitGroup — `limiter.Wait()` on some unrelated type does not
// launder a leaked goroutine — and ranging over a channel counts as the
// receive it is. Unlike every other rule, this one also scans test
// files, which are never type-checked: there any .Wait() is accepted
// (isWaitGroupWait).
type NakedGoroutine struct{}

// Name implements Rule.
func (NakedGoroutine) Name() string { return "nakedgoroutine" }

// Doc implements Rule.
func (NakedGoroutine) Doc() string {
	return "no `go` statement without a WaitGroup/channel join in the enclosing function (parallel.go excepted)"
}

// nakedGoroutineExempt names the files whose goroutines are joined
// across function boundaries by design.
var nakedGoroutineExempt = map[string]bool{
	"internal/bench/parallel.go": true,
}

// Check implements Rule.
func (NakedGoroutine) Check(pkg *Package, report ReportFunc) {
	for _, f := range pkg.Files {
		if nakedGoroutineExempt[f.Path] {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			joined := hasJoin(pkg, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && !joined {
					report(f, g.Pos(),
						"goroutine without a visible join (no WaitGroup Wait or channel receive in the enclosing function); fire-and-forget work outlives its caller")
				}
				return true
			})
		}
	}
}

// hasJoin reports whether body contains a join point: a WaitGroup
// Wait() call, a channel receive expression, or a range over a channel.
func hasJoin(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && isWaitGroupWait(pkg, sel) {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pkg.TypeOf(n.X); t != nil {
				if _, ok := types.Unalias(t).Underlying().(*types.Chan); ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isWaitGroupWait reports whether sel is a Wait() whose receiver is a
// sync.WaitGroup. A receiver without a type — code in a test file,
// which the loader parses but never type-checks — is accepted as a
// join: the rule cannot tell there, and flagging every test helper's
// WaitGroup would bury the real findings.
func isWaitGroupWait(pkg *Package, sel *ast.SelectorExpr) bool {
	t := pkg.TypeOf(sel.X)
	return t == nil || isNamedType(t, true, "sync", "WaitGroup")
}
