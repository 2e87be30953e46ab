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
// A call that passes a shared value to a function or method declared
// in any loaded package is followed: the callee is analyzed with the
// receiver and parameters seeded from the call's arguments, and a
// finding lands on the write inside the callee. A declared callee's
// result is worked out the same way, from the provenance of its
// returns under the call's arguments: a fresh constructor's result is
// owned, a returned parameter keeps the argument's provenance. Where
// no declaration is loaded (interface methods, function values,
// packages outside the run) the analysis stays silent — the race
// detector covers what it cannot see.
type SharedMutation struct{}

// Name implements Rule.
func (SharedMutation) Name() string { return "shared-instance-mutation" }

// Doc implements Rule.
func (SharedMutation) Doc() string {
	return "no writes through a pool-shared *data.Instance/*graph.Graph after submission to the bench worker pool"
}

// Check implements Rule.
func (SharedMutation) Check(m *Module, report ReportFunc) {
	c := &sharedChecker{
		mod:      m,
		report:   report,
		followed: make(map[callKey]bool),
		results:  make(map[callKey]provenance),
	}
	for _, pkg := range m.Pkgs {
		if pkg.Dir != "internal/bench" {
			continue
		}
		// Entry points: every FuncLit submitted through a .cell(...) call.
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
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
						defs := collectDefs(pkg, lit.Type, lit.Body)
						c.flow(pkg, f, defs, true).analyze(lit.Body, make(provState))
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

// callKey names one analysis of a declared callee: the declaration and
// the provenance seeded into each receiver/parameter slot.
type callKey struct {
	decl  *ast.FuncDecl
	seeds string
}

type sharedChecker struct {
	mod      *Module
	report   ReportFunc
	followed map[callKey]bool       // callee analyses already run for writes
	results  map[callKey]provenance // a callee's result per seeding; unknown while in progress
}

// trackedType reports whether t is (a pointer to) data.Instance or
// graph.Graph — the two types the harness shares across cells. The
// package is matched by import-path suffix so fixture modules
// (fix/data, fix/graph) exercise the same code path as the real module.
func trackedType(t types.Type) bool {
	return isNamedType(t, true, "internal/data", "Instance") || isNamedType(t, true, "data", "Instance") ||
		isNamedType(t, true, "internal/graph", "Graph") || isNamedType(t, true, "graph", "Graph")
}

// flow builds the write-reporting provenance analysis for one body of
// pkg in file f. In a cell literal (defs holds the objects it defines)
// a tracked value captured from outside crossed into the pool with the
// submission and is shared; in a followed callee sharing comes only from
// the seeded receiver and parameters.
func (c *sharedChecker) flow(pkg *Package, f *File, defs map[types.Object]bool, cell bool) *provFlow {
	pf := c.resultFlow(pkg, cell)
	if cell {
		pf.identProv = func(s provState, obj types.Object) provenance {
			if !defs[obj] && trackedType(obj.Type()) {
				return provShared
			}
			return provUnknown
		}
		pf.selectorProv = func(s provState, e *ast.SelectorExpr) provenance {
			// A captured struct field or package var of a tracked type:
			// shared, same argument as idents.
			if trackedType(pkg.TypeOf(e)) && !isPkgName(pkg, e.X) {
				return provShared
			}
			return provUnknown
		}
	}
	pf.onWrite = func(kind writeKind, e ast.Expr, pos token.Pos) {
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
	}
	pf.onCall = func(s provState, call *ast.CallExpr) {
		site, seed, key := c.seed(pf, s, call)
		if site == nil || c.followed[key] || !carriesShared(seed) {
			return
		}
		c.followed[key] = true
		c.flow(site.pkg, site.file, nil, false).analyze(site.decl.Body, seed)
	}
	pf.onFuncLit = func(lit *ast.FuncLit, snap provState) {
		// The literal captures the enclosing state.
		pf.analyze(lit.Body, snap)
	}
	return pf
}

// resultFlow builds the silent analysis of a body of pkg: it classifies
// values, and so call results, but reports nothing and follows no call.
func (c *sharedChecker) resultFlow(pkg *Package, cell bool) *provFlow {
	pf := &provFlow{pkg: pkg}
	pf.callProv = func(s provState, call *ast.CallExpr) provenance {
		return c.callProvenance(pf, s, call, cell)
	}
	return pf
}

// callProvenance classifies a call result: constructions (new, Clone)
// are owned; a declared callee answers from its returns under the
// call's arguments (result); otherwise, inside a cell any call yielding
// a tracked type hands out the pool-shared value (memoized builders,
// captured closures), and elsewhere a call is shared only when a shared
// value flows in.
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
	rt := firstResultType(pf.pkg.TypeOf(call))
	if p := c.result(pf, s, call, trackedType(rt)); p != provUnknown {
		return p
	}
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

// result runs the engine over a declared callee's body, seeded from the
// call, and classifies its first result over every return: the largest
// shared or backing provenance returned, else owned when every return is
// owned, else unknown. A call seeding nothing whose result is not
// tracked is not analyzed: its result could only be owned or unknown,
// and neither can lead to a finding.
func (c *sharedChecker) result(pf *provFlow, s provState, call *ast.CallExpr, tracked bool) provenance {
	site, seed, key := c.seed(pf, s, call)
	if site == nil || site.decl.Type.Results == nil || (len(seed) == 0 && !tracked) {
		return provUnknown
	}
	if p, ok := c.results[key]; ok {
		return p
	}
	c.results[key] = provUnknown // a recursive call sees unknown
	res := site.decl.Type.Results
	var shared provenance
	returns, owned := 0, 0
	callee := c.resultFlow(site.pkg, false)
	callee.onReturn = func(s provState, ret *ast.ReturnStmt) {
		var e ast.Expr
		switch {
		case len(ret.Results) > 0:
			e = ret.Results[0]
		case len(res.List[0].Names) > 0:
			e = res.List[0].Names[0] // bare return of a named result
		default:
			return
		}
		returns++
		switch p := callee.provOf(s, e); p {
		case provShared, provBacking:
			shared = max(shared, p)
		case provOwned:
			owned++
		}
	}
	callee.analyze(site.decl.Body, seed)
	p := shared
	if p == provUnknown && returns > 0 && owned == returns {
		p = provOwned
	}
	c.results[key] = p
	return p
}

// seed resolves a call's declared callee and the state its analysis
// starts from: the receiver and each parameter bound to the provenance
// of the argument passed, a value receiver reached through a shared
// pointer as the copy it is (slots whose argument is unknown stay
// unset, and so do the slots a variadic call packs into a fresh slice).
// key names the callee with that seeding.
func (c *sharedChecker) seed(pf *provFlow, s provState, call *ast.CallExpr) (*declSite, provState, callKey) {
	callee, recv := resolveCallee(pf.pkg, call)
	site := c.mod.declOf(callee)
	if site == nil {
		return nil, nil, callKey{}
	}
	seed := make(provState)
	var key []byte
	bind := func(name *ast.Ident, p provenance) {
		key = append(key, byte('0'+p))
		if obj := site.pkg.ObjectOf(name); obj != nil && p != provUnknown {
			seed[obj] = p
		}
	}
	fd := site.decl
	if recv != nil && fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 {
		field := fd.Recv.List[0]
		p := pf.provOf(s, recv)
		if p == provShared && !isReferenceType(site.pkg.TypeOf(field.Type)) {
			p = provBacking // a value receiver is a copy: its fields are its own
		}
		bind(field.Names[0], p)
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		if _, variadic := field.Type.(*ast.Ellipsis); variadic && !call.Ellipsis.IsValid() {
			break
		}
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if i < len(call.Args) {
				bind(name, pf.provOf(s, call.Args[i]))
			}
			i++
		}
	}
	return site, seed, callKey{decl: fd, seeds: string(key)}
}

// carriesShared reports whether a seeding passes anything shared into
// the callee, the only thing a write there can be reported for.
func carriesShared(seed provState) bool {
	for _, p := range seed {
		if p == provShared || p == provBacking {
			return true
		}
	}
	return false
}

// resolveCallee resolves the call's static callee object and, for
// method calls, the receiver expression.
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
