package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// CtxCheckpoint enforces the PR-2 cancellation contract: inside the
// solver packages, every while-style loop (`for {` / `for cond {` — the
// loops whose trip count depends on data, not on a bounded index) in a
// function that takes a context.Context must either poll that context
// or delegate to a *Ctx helper that does. Bounded three-clause and
// range loops are exempt: the contract is "no unbounded work between
// checkpoints", not "a poll on every iteration of everything".
//
// The context parameter is recognized by its type, not its spelling:
// named types and aliases of context.Context, and interface parameters
// that embed it, all count — a context smuggled behind
// `type reqCtx context.Context` cannot hide a poll-free loop. Body
// references are resolved to the actual parameter objects, so an
// unrelated identifier that happens to share the parameter's name does
// not pass as a poll.
//
// Two refinements keep the rule honest on real solver code without
// suppressions. A local built by a *Ctx-suffixed helper from an
// in-scope context is a *carrier*: draining it polls the context
// through the helper, so loops over it need no extra checkpoint
// (ctxCarriers). And a pure monotone index walk — every body statement
// ++/-- of one variable, condition testing that variable — is bounded
// by construction and exempt (isBoundedScan).
type CtxCheckpoint struct{}

// Name implements Rule.
func (CtxCheckpoint) Name() string { return "ctx-checkpoint" }

// Doc implements Rule.
func (CtxCheckpoint) Doc() string {
	return "while-style loops in context-taking solver functions must poll the context or call a Ctx helper"
}

// ctxCheckpointDirs is the rule's scope: the packages PR 2 threaded
// cancellation through. Pure data/render/bench layers are out of scope.
var ctxCheckpointDirs = map[string]bool{
	"internal/graph":       true,
	"internal/bipartite":   true,
	"internal/core":        true,
	"internal/solver":      true,
	"internal/localsearch": true,
	"internal/baseline":    true,
	"internal/dynamic":     true,
}

// Check implements Rule.
func (CtxCheckpoint) Check(pkg *Package, report ReportFunc) {
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		if !ctxCheckpointDirs[pkg.Dir] {
			continue
		}
		for _, decl := range f.AST.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCtxFunc(pkg, f, fd.Type, fd.Body, nil, report)
			}
		}
	}
}

// checkCtxFunc walks one function body with the context objects
// visible in its scope (the enclosing functions' plus its own — a
// closure may checkpoint through a captured context).
func checkCtxFunc(pkg *Package, f *File, ft *ast.FuncType, body *ast.BlockStmt, outer []types.Object, report ReportFunc) {
	scope := append(append([]types.Object(nil), outer...), ctxParamObjs(pkg, ft)...)
	if len(scope) > 0 {
		scope = append(scope, ctxCarriers(pkg, body, scope)...)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkCtxFunc(pkg, f, n.Type, n.Body, scope, report)
			return false
		case *ast.ForStmt:
			if len(scope) > 0 && n.Init == nil && n.Post == nil && !isBoundedScan(n) && !mentionsCtx(pkg, n.Body, scope) {
				report(f, n.Pos(),
					"while-style loop in a context-taking function never polls the context; add a ctx.Err() checkpoint or delegate to a Ctx helper (see DESIGN.md §9)")
			}
		}
		return true
	})
}

// ctxCarriers collects locals bound to the result of a *Ctx-suffixed
// call that receives one of the in-scope contexts. By the module's
// naming convention such a helper threads the context into the value it
// returns — a searcher, an iterator — so draining that value inside a
// loop polls the context through it (graph.NewNNSearcherCtx is the
// canonical case). Collection is flow-insensitive and one level deep: a
// carrier does not beget further carriers.
func ctxCarriers(pkg *Package, body *ast.BlockStmt, scope []types.Object) []types.Object {
	var out []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isCtxHelperCall(pkg, call, scope) {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if obj := pkg.ObjectOf(id); obj != nil {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// isCtxHelperCall reports whether call invokes a *Ctx-suffixed helper
// with one of the in-scope contexts among its arguments. The argument
// requirement is the precision: a Ctx helper handed context.Background()
// carries no cancellation worth crediting.
func isCtxHelperCall(pkg *Package, call *ast.CallExpr, scope []types.Object) bool {
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	default:
		return false
	}
	if !strings.HasSuffix(name, "Ctx") || name == "Ctx" {
		return false
	}
	for _, arg := range call.Args {
		if refsCtx(pkg, arg, scope) {
			return true
		}
	}
	return false
}

// refsCtx reports whether e references one of the in-scope contexts,
// by object identity.
func refsCtx(pkg *Package, e ast.Expr, scope []types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && slices.Contains(scope, pkg.ObjectOf(id)) {
			found = true
		}
		return !found
	})
	return found
}

// isBoundedScan reports whether the while-loop is a pure monotone index
// walk: every body statement is ++ or -- of the same variable and the
// call-free condition tests that variable against its bound. Such a
// loop finishes in at most range-of-the-index steps — the lexicographic
// subset-successor scan in internal/solver is the canonical case — and
// needs no checkpoint. The shape is deliberately narrow: a body with
// any statement beyond the single IncDec (or a condition that calls
// out) falls back to the checkpoint requirement.
func isBoundedScan(n *ast.ForStmt) bool {
	if n.Cond == nil || len(n.Body.List) == 0 {
		return false
	}
	var v string
	for _, st := range n.Body.List {
		inc, ok := st.(*ast.IncDecStmt)
		if !ok {
			return false
		}
		id, ok := inc.X.(*ast.Ident)
		if !ok {
			return false
		}
		if v == "" {
			v = id.Name
		} else if id.Name != v {
			return false
		}
	}
	tested, callFree := false, true
	ast.Inspect(n.Cond, func(nn ast.Node) bool {
		switch x := nn.(type) {
		case *ast.CallExpr:
			callFree = false
			return false
		case *ast.Ident:
			if x.Name == v {
				tested = true
			}
		}
		return true
	})
	return tested && callFree
}

// ctxParamObjs resolves ft's context-typed parameters to their objects,
// recognizing context.Context behind aliases, named types, and
// embedding interfaces (isContextType).
func ctxParamObjs(pkg *Package, ft *ast.FuncType) []types.Object {
	if ft == nil || ft.Params == nil {
		return nil
	}
	var objs []types.Object
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := pkg.ObjectOf(name)
			if obj != nil && name.Name != "_" && isContextType(obj.Type()) {
				objs = append(objs, obj)
			}
		}
	}
	return objs
}

// mentionsCtx reports whether body references one of the in-scope
// context objects or calls a *Ctx-suffixed helper (which by the
// module's naming convention takes and polls a context itself).
func mentionsCtx(pkg *Package, body *ast.BlockStmt, scope []types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if (strings.HasSuffix(id.Name, "Ctx") && id.Name != "Ctx") || slices.Contains(scope, pkg.ObjectOf(id)) {
			found = true
		}
		return !found
	})
	return found
}
