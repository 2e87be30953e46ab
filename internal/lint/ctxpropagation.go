package lint

import (
	"go/ast"
	"go/types"
)

// CtxPropagation closes the gap between receiving a context and
// honoring it: a function that takes a context.Context (directly or
// behind a named/interface type) must pass *that* context down, not
// mint a fresh context.Background() or context.TODO() — a detached
// context silently severs the caller's deadline and cancellation,
// which is exactly the contract PR 2 threaded through the solver
// stack. The rule fires when a Background()/TODO() call appears as an
// argument of another call inside such a function; the sanctioned
// nil-guard (`if ctx == nil { ctx = context.Background() }`) assigns
// rather than passes and stays silent, as do the root package's
// convenience wrappers, which take no context at all. Deliberate
// detachment (a goroutine outliving the request) must say so with
// //lint:ignore ctx-propagation <reason>.
type CtxPropagation struct{}

// Name implements Rule.
func (CtxPropagation) Name() string { return "ctx-propagation" }

// Doc implements Rule.
func (CtxPropagation) Doc() string {
	return "a context-taking function must propagate its context, not pass context.Background()/TODO() to callees"
}

// Check implements Rule.
func (CtxPropagation) Check(pkg *Package, report ReportFunc) {
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.AST.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCtxPropagation(pkg, f, fd.Type, fd.Body, false, report)
			}
		}
	}
}

// checkCtxPropagation walks one function body; hasCtx carries the
// enclosing functions' context scope into closures (a closure that
// captures a context is bound by the same contract).
func checkCtxPropagation(pkg *Package, f *File, ft *ast.FuncType, body *ast.BlockStmt, outer bool, report ReportFunc) {
	hasCtx := outer || hasContextParam(pkg, ft)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkCtxPropagation(pkg, f, n.Type, n.Body, hasCtx, report)
			return false
		case *ast.CallExpr:
			if !hasCtx {
				return true
			}
			for _, arg := range n.Args {
				call, ok := ast.Unparen(arg).(*ast.CallExpr)
				if !ok {
					continue
				}
				for _, name := range [...]string{"Background", "TODO"} {
					if pkg.isPkgFunc(call, "context", name) {
						report(f, arg.Pos(),
							"context.%s() passed to a callee inside a context-taking function severs the caller's cancellation and deadline; pass the received ctx (or //lint:ignore ctx-propagation <reason> for deliberate detachment)", name)
					}
				}
			}
		}
		return true
	})
}

// hasContextParam reports whether ft declares a context.Context-typed
// parameter (named context types and context-shaped interfaces count;
// see isContextType).
func hasContextParam(pkg *Package, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		var t types.Type
		if len(field.Names) > 0 {
			t = pkg.TypeOf(field.Names[0])
		}
		if t == nil {
			t = pkg.TypeOf(field.Type)
		}
		if isContextType(t) {
			return true
		}
	}
	return false
}
