package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedMutation enforces the bench harness's immutability contract
// (DESIGN.md §8): once an instance is handed to the worker pool, the
// *data.Instance and *graph.Graph it references are shared read-only
// across concurrently running cells, so nothing reached from a cell may
// write through them. The rule is typed and runs on the v3 engine: it
// starts at every function literal submitted via pool.cell, seeds the
// flow-sensitive provenance analysis (provenance.go) — owned: built
// here from a composite literal, new, or a Clone call; shared: received
// from a memoized builder, captured from the enclosing sweep, or
// derived from either — and reports any field write, element write,
// pointer store, or copy() whose destination is rooted in a shared
// value *at that program point*. Rebinding heals: after
// `inst = inst.Clone()` the variable is owned on every path below, and
// facts merge at branch joins, so only paths where the value is really
// shared are reported. A shallow value copy (inst := *shared) owns its
// direct fields but not the backing arrays of its slice/map fields —
// writing copy.K is fine, writing copy.Customers[i] is a finding.
//
// Same-package callees taking a shared argument are followed and
// analyzed with that parameter marked shared. Out-of-package callees
// are resolved against the module's function summaries (summary.go):
// a call passing a shared value where the summary proves a write is
// reported at the call site. Where no summary exists (interface
// methods, closures, unsummarized packages) the analysis stays silent,
// as before — the race detector covers what it cannot see.
type SharedMutation struct{}

// Name implements Rule.
func (SharedMutation) Name() string { return "shared-instance-mutation" }

// Doc implements Rule.
func (SharedMutation) Doc() string {
	return "no writes through a pool-shared *data.Instance/*graph.Graph after submission to the bench worker pool"
}

// Check implements Rule.
func (SharedMutation) Check(m *Module, report ReportFunc) {
	for _, pkg := range m.Pkgs {
		if pkg.Dir != "internal/bench" {
			continue
		}
		c := &sharedChecker{pkg: pkg, mod: m, report: report, analyzed: make(map[string]bool)}
		c.decls = pkg.funcDecls()

		// Entry points: every FuncLit submitted through a .cell(...) call.
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			f := f
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "cell" {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						c.analyze(f, lit.Type, lit.Body, nil, true)
					}
				}
				return true
			})
		}
	}
}

// provenance is the lattice the engine tracks per value, ordered so
// that the dataflow merge can take the maximum.
type provenance int

const (
	provUnknown provenance = iota
	provOwned              // freshly constructed here; writes are fine
	provBacking            // value copy of a shared object: fields owned, backing arrays shared
	provShared             // points into the pool-shared object graph
)

// declSite pairs a function declaration with its file for reporting.
type declSite struct {
	file *File
	decl *ast.FuncDecl
}

type sharedChecker struct {
	pkg      *Package
	mod      *Module
	report   ReportFunc
	decls    map[types.Object]*declSite
	analyzed map[string]bool // decl+shared-param mask, cycle/duplicate guard
}

// trackedType reports whether t is (a pointer to) data.Instance or
// graph.Graph — the two types the harness shares across cells. The
// package is matched by import-path suffix so fixture modules
// (fix/data, fix/graph) exercise the same code path as the real module.
func trackedType(t types.Type) bool {
	return isNamedType(t, true, "internal/data", "Instance") || isNamedType(t, true, "data", "Instance") ||
		isNamedType(t, true, "internal/graph", "Graph") || isNamedType(t, true, "graph", "Graph")
}

// analyze runs the provenance flow over one function body. sharedParams
// maps parameter index to the provenance flowing in from a call site
// (nil for cell literals, whose sharing comes from capture and builder
// calls instead).
func (c *sharedChecker) analyze(f *File, ft *ast.FuncType, body *ast.BlockStmt, sharedParams map[int]provenance, cell bool) {
	defs := collectDefs(c.pkg, ft, body)
	seed := make(provState)
	idx := 0
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj := c.pkg.ObjectOf(name); obj != nil {
					if p, ok := sharedParams[idx]; ok {
						seed[obj] = p
					}
				}
				idx++
			}
		}
	}

	var pf *provFlow
	pf = &provFlow{
		pkg:  c.pkg,
		defs: defs,
		identProv: func(s provState, obj types.Object) provenance {
			// A tracked value captured from outside a cell literal
			// crossed into the pool with the submission: shared by
			// definition.
			if cell && !defs[obj] && trackedType(obj.Type()) {
				return provShared
			}
			return provUnknown
		},
		selectorProv: func(s provState, e *ast.SelectorExpr) provenance {
			// Unqualified selector (captured struct field, package var)
			// of a tracked type inside a cell: shared, same argument as
			// idents.
			if cell && trackedType(c.pkg.TypeOf(e)) && !isPkgName(c.pkg, e.X) {
				return provShared
			}
			return provUnknown
		},
		callProv: func(s provState, call *ast.CallExpr) provenance {
			return c.callProvenance(pf, s, call, cell)
		},
		onWrite: func(kind writeKind, e ast.Expr, pos token.Pos) {
			switch kind {
			case wkField:
				sel := e.(*ast.SelectorExpr)
				c.report(f, pos,
					"write to field %s of a pool-shared instance after submission; cells must treat submitted instances as read-only (take a shallow copy before the pool, as runCoworkingSweep does)", sel.Sel.Name)
			case wkElem:
				c.report(f, pos,
					"element write into a pool-shared backing array after submission; a shallow instance copy still shares its slices — clone the slice before mutating")
			case wkPtr:
				c.report(f, pos,
					"store through a pointer into a pool-shared instance after submission; cells must treat submitted instances as read-only")
			case wkCopy:
				c.report(f, pos,
					"copy() into a pool-shared instance's backing array; cells must treat submitted instances as read-only (clone or rebuild instead)")
			}
		},
		onCall: func(s provState, call *ast.CallExpr) {
			c.follow(f, pf, s, call)
		},
		onFuncLit: func(lit *ast.FuncLit, snap provState) {
			// The literal captures the enclosing state; its own params
			// are already in defs (collectDefs descends).
			pf.analyze(lit.Body, snap)
		},
	}
	pf.analyze(body, seed)
}

// callProvenance classifies a call result: constructions (new, Clone)
// are owned; summarized out-of-package callees answer precisely
// (provably fresh results are owned, result-aliases-parameter maps the
// argument provenance through); otherwise, inside a cell any call
// yielding a tracked type hands out the pool-shared value (memoized
// builders, captured closures), and elsewhere a call is shared only
// when a shared value flows in.
func (c *sharedChecker) callProvenance(pf *provFlow, s provState, call *ast.CallExpr, cell bool) provenance {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "new" {
			return provOwned
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Clone" {
			return provOwned
		}
	}

	callee, recv := resolveCallee(c.pkg, call)
	if callee != nil {
		if _, local := c.decls[callee]; !local {
			if fs := c.mod.funcSummaryOf(callee); fs != nil {
				if fs.resultFresh {
					return provOwned
				}
				if fs.resultAlias != 0 {
					p := provUnknown
					for slot, arg := range callArgs(call, recv) {
						if slot < 64 && fs.resultAlias&(1<<uint(slot)) != 0 {
							if ap := pf.provOf(s, arg); ap > p {
								p = ap
							}
						}
					}
					if p == provShared || p == provBacking {
						return pf.projectTo(provShared, firstResultType(c.pkg.TypeOf(call)))
					}
					return p
				}
			}
		}
	}

	rt := firstResultType(c.pkg.TypeOf(call))
	if !trackedType(rt) {
		return provUnknown
	}
	if cell {
		return provShared
	}
	for _, arg := range call.Args {
		if p := pf.provOf(s, arg); p == provShared || p == provBacking {
			return provShared
		}
	}
	return provUnknown
}

// follow handles a call with shared arguments: same-package function
// callees are analyzed with the corresponding parameters marked shared
// (the finding lands on the write inside the callee); out-of-package
// callees are checked against their summary and reported at the call
// site when the summary proves a write.
func (c *sharedChecker) follow(f *File, pf *provFlow, s provState, call *ast.CallExpr) {
	callee, recv := resolveCallee(c.pkg, call)
	if callee == nil {
		return
	}
	if site, ok := c.decls[callee]; ok && recv == nil {
		shared := make(map[int]provenance)
		key := ""
		for i, arg := range call.Args {
			if p := pf.provOf(s, arg); p == provShared || p == provBacking {
				shared[i] = p
				key += string(rune('a'+i%26)) + string(rune('0'+int(p)))
			}
		}
		if len(shared) == 0 {
			return
		}
		key = callee.Name() + ":" + key
		if c.analyzed[key] {
			return
		}
		c.analyzed[key] = true
		c.analyze(site.file, site.decl.Type, site.decl.Body, shared, false)
		return
	}

	fs := c.mod.funcSummaryOf(callee)
	if fs == nil {
		return
	}
	for slot, arg := range callArgs(call, recv) {
		if slot >= len(fs.writes) || fs.writes[slot] != escYes {
			continue
		}
		if pf.provOf(s, arg) != provShared {
			continue
		}
		what := "argument"
		if slot == 0 && recv != nil {
			what = "receiver"
		}
		c.report(f, call.Pos(),
			"call passes a pool-shared instance to %s, which writes through its %s; cells must treat submitted instances as read-only", calleeLabel(callee), what)
	}
}

// resolveCallee resolves the call's static callee object and, for
// method calls, the receiver expression (summary slot 0).
func resolveCallee(pkg *Package, call *ast.CallExpr) (types.Object, ast.Expr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkg.ObjectOf(fun), nil
	case *ast.SelectorExpr:
		obj := pkg.ObjectOf(fun.Sel)
		fn, ok := obj.(*types.Func)
		if !ok {
			return nil, nil
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return fn, fun.X
		}
		return fn, nil
	}
	return nil, nil
}

// calleeLabel renders a callee for a finding message: pkg.Func or
// pkg.Type.Method.
func calleeLabel(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	label := summaryKey(fn)
	if fn.Pkg() != nil {
		label = fn.Pkg().Name() + "." + label
	}
	return label
}

// isReferenceType reports whether values of t share underlying storage
// when copied (pointers, slices, maps).
func isReferenceType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// isPkgName reports whether e is a package qualifier identifier.
func isPkgName(pkg *Package, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = pkg.ObjectOf(id).(*types.PkgName)
	return ok
}
