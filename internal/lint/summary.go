package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file computes the cross-package half of the provenance engine:
// per-package summaries of what each function does with the data its
// parameters point into. The intra-package pass (sharedmutation.go,
// publishedimmutability.go) stops at package boundaries; summaries let
// an importer see through an exported callee without re-analyzing it —
// "does F write through parameter 2?" and "does F's result alias a
// parameter, or is it freshly allocated?" become table lookups.
//
// Summaries are three-valued on writes (no / maybe / yes) and
// consumers only act on the definite ends: a provenance rule reports a
// call site when the summary *proves* a write through a shared
// argument (escYes), and treats a result as owned only when every
// return path *provably* allocates (resultFresh). Everything uncertain
// stays escMaybe/unknown, which consumers treat exactly like the old
// opaque-call behavior — the summaries can only sharpen the analysis,
// never destabilize it.

// escape is the three-valued write-through verdict for one parameter.
type escape int

const (
	escNo    escape = iota // no evidence of a write through the parameter
	escMaybe               // the parameter leaks somewhere the analysis cannot see
	escYes                 // the function (or a callee) definitely writes through it
)

func (e escape) String() string {
	switch e {
	case escYes:
		return "yes"
	case escMaybe:
		return "maybe"
	}
	return "no"
}

// funcSummary describes one function or method. Parameter slots are
// ordered receiver-first for methods; only the first result is
// tracked (the position tracked instance types travel in throughout
// the module).
type funcSummary struct {
	params      []types.Object // receiver (if any), then declared params
	writes      []escape       // per parameter slot
	resultAlias uint64         // param-slot bitmask the first result may alias
	resultFresh bool           // every return path freshly allocates result 0
}

// pkgSummary indexes a package's function summaries by summaryKey.
type pkgSummary struct {
	funcs map[string]*funcSummary
}

// summaryKey names a function within its package: "Func" for
// package-level functions, "Type.Method" for methods (pointer and
// value receivers share a key — a types.Func's receiver type is
// normalized here).
func summaryKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// summarizePackage computes every function's summary, iterating the
// package-local call graph to a fixpoint so a write that happens two
// same-package calls down still surfaces on the entry function's
// parameter. Cross-package callees resolve against the summaries of
// packages earlier in import order (m.summaries).
func summarizePackage(m *Module, pkg *Package) *pkgSummary {
	ps := &pkgSummary{funcs: make(map[string]*funcSummary)}
	type workItem struct {
		key  string
		site *declSite
	}
	var work []workItem
	for obj, site := range pkg.funcDecls() {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		key := summaryKey(fn)
		ps.funcs[key] = &funcSummary{params: summaryParams(pkg, site.decl)}
		ps.funcs[key].writes = make([]escape, len(ps.funcs[key].params))
		work = append(work, workItem{key, site})
	}
	sort.Slice(work, func(i, j int) bool { return work[i].key < work[j].key })

	// Monotone fixpoint: escape values only increase, so this
	// terminates; the bound is a backstop against analysis bugs.
	for round := 0; round < 16; round++ {
		changed := false
		for _, w := range work {
			if summarizeFunc(m, pkg, ps, ps.funcs[w.key], w.site.decl) {
				changed = true
			}
		}
		if changed {
			continue
		}
		return ps
	}
	return ps
}

// summaryParams collects the parameter slot objects: receiver first.
func summaryParams(pkg *Package, fd *ast.FuncDecl) []types.Object {
	var params []types.Object
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				params = append(params, pkg.ObjectOf(name))
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	return params
}

// aliasFact is the summary lattice: bitmasks over parameter slots.
// shared bits mean the value points into the parameter's object graph;
// backing bits mean it is a value copy whose reference fields still do.
type aliasFact struct {
	shared, backing uint64
}

func (a aliasFact) union(b aliasFact) aliasFact {
	return aliasFact{shared: a.shared | b.shared, backing: a.backing | b.backing}
}

func (a aliasFact) zero() bool { return a.shared == 0 && a.backing == 0 }

// summarizeFunc recomputes one function's summary facts in place and
// reports whether anything increased. The alias propagation is
// flow-insensitive (two joining passes — summaries answer "may", so
// strong updates would be unsound here anyway).
func summarizeFunc(m *Module, pkg *Package, ps *pkgSummary, fs *funcSummary, fd *ast.FuncDecl) bool {
	aliases := make(map[types.Object]aliasFact, len(fs.params))
	for i, p := range fs.params {
		if p == nil || i >= 64 {
			continue
		}
		switch paramEntryKind(p.Type()) {
		case provShared:
			aliases[p] = aliasFact{shared: 1 << uint(i)}
		case provBacking:
			aliases[p] = aliasFact{backing: 1 << uint(i)}
		}
	}

	sc := &summaryScan{m: m, pkg: pkg, ps: ps, aliases: aliases}
	for range [2]struct{}{} {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				sc.propagate(n)
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						sc.record(name, sc.factOf(n.Values[i]))
					}
				}
			case *ast.RangeStmt:
				elem := sc.project(sc.factOf(n.X), pkg.TypeOf(n.Value))
				if id, ok := n.Value.(*ast.Ident); ok {
					sc.record(id, elem)
				}
			}
			return true
		})
	}

	changed := false
	raise := func(mask uint64, to escape) {
		for i := range fs.params {
			if i < 64 && mask&(1<<uint(i)) != 0 && fs.writes[i] < to {
				fs.writes[i] = to
				changed = true
			}
		}
	}
	sc.raise = raise

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sc.checkWrite(lhs)
			}
			// A parameter stored into something that is not itself
			// parameter-rooted (a global, an escaping struct, a map)
			// leaks beyond the analysis: demote to maybe.
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					if _, isIdent := ast.Unparen(n.Lhs[i]).(*ast.Ident); isIdent {
						continue
					}
				}
				if f := sc.factOf(rhs); !f.zero() {
					raise(f.shared|f.backing, escMaybe)
				}
			}
		case *ast.IncDecStmt:
			sc.checkWrite(n.X)
		case *ast.SendStmt:
			if f := sc.factOf(n.Value); !f.zero() {
				raise(f.shared|f.backing, escMaybe)
			}
		case *ast.CallExpr:
			sc.checkCall(n)
		case *ast.ReturnStmt:
			sc.checkReturn(fd, n)
		case *ast.FuncLit:
			// A closure may capture and write a parameter after this
			// function returns; anything parameter-rooted it mentions
			// is at least maybe-escaped, and a definite write inside
			// is still a definite write.
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				switch inner := inner.(type) {
				case *ast.AssignStmt:
					for _, lhs := range inner.Lhs {
						sc.checkWrite(lhs)
					}
				case *ast.IncDecStmt:
					sc.checkWrite(inner.X)
				case *ast.CallExpr:
					sc.checkCall(inner)
				case *ast.Ident:
					if f, ok := sc.aliases[pkg.ObjectOf(inner)]; ok && !f.zero() {
						raise(f.shared|f.backing, escMaybe)
					}
				}
				return true
			})
			return false
		}
		return true
	})

	if sc.sawReturn && sc.allFresh && !fs.resultFresh {
		fs.resultFresh = true
		changed = true
	}
	if sc.resultAlias&^fs.resultAlias != 0 {
		fs.resultAlias |= sc.resultAlias
		changed = true
	}
	return changed
}

// paramEntryKind classifies how a parameter's own value relates to the
// caller's object graph: reference types point straight into it
// (shared), struct values copy the fields but share the backing arrays
// of any reference fields (backing), and pure scalars carry nothing.
func paramEntryKind(t types.Type) provenance {
	if t == nil {
		return provUnknown
	}
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return provShared
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if paramEntryKind(u.Field(i).Type()) != provUnknown {
				return provBacking
			}
		}
	case *types.Array:
		if paramEntryKind(u.Elem()) != provUnknown {
			return provBacking
		}
	}
	return provUnknown
}

// summaryScan is the per-function working state of summarizeFunc.
type summaryScan struct {
	m       *Module
	pkg     *Package
	ps      *pkgSummary
	aliases map[types.Object]aliasFact
	raise   func(mask uint64, to escape)

	sawReturn   bool
	allFresh    bool
	resultAlias uint64
}

func (sc *summaryScan) record(name *ast.Ident, f aliasFact) {
	if f.zero() || name.Name == "_" {
		return
	}
	obj := sc.pkg.ObjectOf(name)
	if obj == nil {
		return
	}
	sc.aliases[obj] = sc.aliases[obj].union(f)
}

func (sc *summaryScan) propagate(as *ast.AssignStmt) {
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				sc.record(id, sc.factOf(as.Rhs[i]))
			}
		}
		return
	}
	if len(as.Rhs) == 1 {
		// Multi-value call or type assertion: the first value carries
		// the tracked position.
		if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok {
			sc.record(id, sc.factOf(as.Rhs[0]))
		}
	}
}

// project applies the provenance projection rules to a fact: a
// reference-typed projection of parameter-rooted data still points into
// it; a value-typed projection becomes a backing copy.
func (sc *summaryScan) project(base aliasFact, t types.Type) aliasFact {
	if base.zero() {
		return base
	}
	mask := base.shared | base.backing
	if isReferenceType(t) {
		return aliasFact{shared: mask}
	}
	return aliasFact{backing: mask}
}

// factOf classifies an expression against the current alias map.
func (sc *summaryScan) factOf(e ast.Expr) aliasFact {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return sc.aliases[sc.pkg.ObjectOf(e)]
	case *ast.SelectorExpr:
		return sc.project(sc.factOf(e.X), sc.pkg.TypeOf(e))
	case *ast.IndexExpr:
		return sc.project(sc.factOf(e.X), sc.pkg.TypeOf(e))
	case *ast.SliceExpr:
		return sc.factOf(e.X)
	case *ast.StarExpr:
		base := sc.factOf(e.X)
		if base.zero() {
			return base
		}
		return aliasFact{backing: base.shared | base.backing}
	case *ast.UnaryExpr:
		return sc.factOf(e.X)
	case *ast.TypeAssertExpr:
		return sc.factOf(e.X)
	case *ast.CallExpr:
		return sc.callFact(e)
	}
	return aliasFact{}
}

// callFact maps a call's argument facts through the callee's summary
// (when known) to the fact of its first result.
func (sc *summaryScan) callFact(call *ast.CallExpr) aliasFact {
	callee, recv := sc.resolveCallee(call)
	if callee == nil {
		return aliasFact{}
	}
	cs := sc.lookup(callee)
	if cs == nil {
		return aliasFact{}
	}
	if cs.resultFresh {
		return aliasFact{}
	}
	var out aliasFact
	args := callArgs(call, recv)
	for slot, arg := range args {
		if slot >= 64 || cs.resultAlias&(1<<uint(slot)) == 0 {
			continue
		}
		f := sc.factOf(arg)
		out.shared |= f.shared
		out.backing |= f.backing
	}
	return out
}

// checkWrite raises definite write verdicts for a store whose
// destination is parameter-rooted.
func (sc *summaryScan) checkWrite(lhs ast.Expr) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if f := sc.factOf(e.X); f.shared != 0 {
			sc.raise(f.shared, escYes)
		}
	case *ast.IndexExpr:
		if f := sc.factOf(e.X); !f.zero() {
			sc.raise(f.shared|f.backing, escYes)
		}
	case *ast.StarExpr:
		if f := sc.factOf(e.X); f.shared != 0 {
			sc.raise(f.shared, escYes)
		}
	}
}

// checkCall propagates write verdicts through the call graph: a
// parameter passed where a summarized callee writes is a definite
// write here too; passed to anything unknown, it is a maybe.
func (sc *summaryScan) checkCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "copy" && len(call.Args) > 0 {
		if obj := sc.pkg.ObjectOf(id); obj == nil || obj.Pkg() == nil { // the builtin
			if f := sc.factOf(call.Args[0]); !f.zero() {
				sc.raise(f.shared|f.backing, escYes)
			}
			return
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := sc.pkg.ObjectOf(id); obj != nil && obj.Pkg() == nil {
			return // other builtins (len, append, make, ...) never write
		}
	}
	callee, recv := sc.resolveCallee(call)
	var cs *funcSummary
	if callee != nil {
		cs = sc.lookup(callee)
	}
	args := callArgs(call, recv)
	for slot, arg := range args {
		f := sc.factOf(arg)
		if f.zero() {
			continue
		}
		switch {
		case cs == nil:
			sc.raise(f.shared|f.backing, escMaybe)
		case slot < len(cs.writes) && cs.writes[slot] == escYes:
			sc.raise(f.shared, escYes)
			sc.raise(f.backing, escMaybe)
		case slot < len(cs.writes) && cs.writes[slot] == escMaybe:
			sc.raise(f.shared|f.backing, escMaybe)
		case slot >= len(cs.writes): // variadic overflow slot
			sc.raise(f.shared|f.backing, escMaybe)
		}
	}
}

// checkReturn folds one return statement into the result facts.
func (sc *summaryScan) checkReturn(fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	if !sc.sawReturn {
		sc.sawReturn = true
		sc.allFresh = true
	}
	var expr ast.Expr
	if len(ret.Results) > 0 {
		expr = ret.Results[0]
	} else if fd.Type.Results != nil && len(fd.Type.Results.List) > 0 {
		if names := fd.Type.Results.List[0].Names; len(names) > 0 {
			expr = names[0] // bare return of a named result
		}
	}
	if expr == nil {
		return
	}
	if f := sc.factOf(expr); !f.zero() {
		sc.resultAlias |= f.shared | f.backing
		sc.allFresh = false
		return
	}
	if !sc.isFresh(expr) {
		sc.allFresh = false
	}
}

// isFresh reports whether the expression provably allocates: composite
// literals, new/make, append to nil, or a call whose summary says
// fresh (a Clone method counts by the module convention).
func (sc *summaryScan) isFresh(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		return sc.isFresh(e.X)
	case *ast.CallExpr:
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "new" || fun.Name == "make" {
				if obj := sc.pkg.ObjectOf(fun); obj == nil || obj.Pkg() == nil {
					return true
				}
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Clone" {
				return true
			}
		}
		callee, _ := sc.resolveCallee(e)
		if callee != nil {
			if cs := sc.lookup(callee); cs != nil {
				return cs.resultFresh
			}
		}
	}
	return false
}

// resolveCallee is the package-level resolveCallee narrowed to
// functions and methods: only those have summaries.
func (sc *summaryScan) resolveCallee(call *ast.CallExpr) (*types.Func, ast.Expr) {
	obj, recv := resolveCallee(sc.pkg, call)
	if fn, ok := obj.(*types.Func); ok {
		return fn, recv
	}
	return nil, nil
}

// lookup finds the callee's summary: same package (the in-progress
// fixpoint table) or an already-summarized import. Interface methods
// have no body anywhere and resolve to nil.
func (sc *summaryScan) lookup(fn *types.Func) *funcSummary {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := types.Unalias(sig.Recv().Type()).Underlying().(*types.Interface); isIface {
			return nil
		}
	}
	if fn.Pkg() == nil {
		return nil
	}
	if sc.pkg.Types != nil && fn.Pkg().Path() == sc.pkg.Types.Path() {
		return sc.ps.funcs[summaryKey(fn)]
	}
	if ps := sc.m.summaryFor(fn.Pkg().Path()); ps != nil {
		return ps.funcs[summaryKey(fn)]
	}
	return nil
}

// callArgs maps summary parameter slots to call-site expressions:
// slot 0 is the receiver for method calls, then positional arguments.
func callArgs(call *ast.CallExpr, recv ast.Expr) map[int]ast.Expr {
	args := make(map[int]ast.Expr, len(call.Args)+1)
	off := 0
	if recv != nil {
		args[0] = recv
		off = 1
	}
	for i, a := range call.Args {
		args[i+off] = a
	}
	return args
}
