package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the rule-facing layer of the v3 engine: a flow-sensitive
// provenance analysis over the CFG (cfg.go) solved by the generic
// worklist (dataflow.go). shared-instance-mutation instantiates it by
// plugging in what "shared" means for it (capture semantics, call
// classification) and what to say when a write through shared memory
// is found. The projection rules (a reference-typed field of a shared
// value is shared, a value copy owns its fields but not its backing
// arrays) and the write checks themselves live here.

// provState is the dataflow state: the provenance of each variable at
// a program point. Objects absent from the map are provUnknown.
type provState map[types.Object]provenance

func cloneProv(s provState) provState {
	out := make(provState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// mergeProv joins src into dst (per-variable maximum — the lattice
// order of provenance) and reports whether dst changed.
func mergeProv(dst, src provState) bool {
	changed := false
	for k, v := range src {
		if v > dst[k] {
			dst[k] = v
			changed = true
		}
	}
	return changed
}

// writeKind distinguishes the store shapes the write check recognizes,
// so the rule can word its finding per shape.
type writeKind int

const (
	wkField writeKind = iota // x.F = v       (needs a shared base)
	wkElem                   // x[i] = v      (fires on shared or backing)
	wkPtr                    // *p = v        (needs a shared pointer)
	wkCopy                   // copy(dst, _)  (fires on shared or backing)
)

// provFlow runs the analysis over one function body. The function
// fields are the rule's half of the contract; nil hooks default to
// provUnknown / no-op.
type provFlow struct {
	pkg *Package

	// identProv classifies an identifier the state knows nothing about
	// (typically: is this a capture of something shared?).
	identProv func(s provState, obj types.Object) provenance
	// selectorProv classifies a selector whose base is unknown (a field
	// of a captured struct, for example).
	selectorProv func(s provState, e *ast.SelectorExpr) provenance
	// callProv classifies a call result.
	callProv func(s provState, call *ast.CallExpr) provenance
	// onWrite fires when a store's destination is rooted in shared (or,
	// for element writes and copy, backing-shared) memory.
	onWrite func(kind writeKind, e ast.Expr, pos token.Pos)
	// onCall fires for every call expression, with the state at the
	// call; rules use it to follow callees.
	onCall func(s provState, call *ast.CallExpr)
	// onReturn fires for every return statement of the analyzed body,
	// with the state at it; rules use it to classify a result.
	onReturn func(s provState, ret *ast.ReturnStmt)
	// onFuncLit fires for a nested function literal with a snapshot of
	// the state at its occurrence; the rule decides how to descend.
	onFuncLit func(lit *ast.FuncLit, seed provState)
}

// analyze solves the fixpoint over body starting from seed and then
// replays each block's in-state through its statements, checking
// writes and calls against the state at that exact point.
func (pf *provFlow) analyze(body *ast.BlockStmt, seed provState) {
	g := buildCFG(body)
	d := dataflow[provState]{
		seed:  func() provState { return cloneProv(seed) },
		clone: cloneProv,
		merge: mergeProv,
		step:  func(n ast.Node, s provState) { pf.step(n, s) },
	}
	in := d.fixpoint(g)
	for _, b := range g.blocks {
		s, ok := in[b]
		if !ok {
			s = seed // unreachable code: still scanned, entry facts only
		}
		s = cloneProv(s)
		for _, n := range b.nodes {
			pf.scan(n, s)
			if ret, ok := n.(*ast.ReturnStmt); ok && pf.onReturn != nil {
				pf.onReturn(s, ret)
			}
			pf.step(n, s)
		}
	}
}

// step applies one statement's transfer effect. Assignments to a plain
// identifier are strong updates — the flow-sensitive heart of the
// engine: `inst = inst.Clone()` really does make inst owned from here
// on, where the old syntactic sweep kept it shared forever.
func (pf *provFlow) step(n ast.Node, s provState) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		pf.transferAssign(n, s)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				switch {
				case i < len(vs.Values):
					pf.set(s, name, pf.provOf(s, vs.Values[i]))
				case len(vs.Values) == 1 && i > 0:
					pf.set(s, name, provUnknown) // tuple tail
				default:
					pf.set(s, name, provUnknown) // zero value
				}
			}
		}
	case *ast.RangeStmt:
		base := pf.provOf(s, n.X)
		if id, ok := n.Key.(*ast.Ident); ok && n.Key != nil {
			pf.set(s, id, pf.projectTo(base, pf.pkg.TypeOf(id)))
		}
		if id, ok := n.Value.(*ast.Ident); ok && n.Value != nil {
			pf.set(s, id, pf.projectTo(base, pf.pkg.TypeOf(id)))
		}
	}
}

// transferAssign handles = and :=; compound assignments (+= and
// friends) never rebind, so they carry no provenance effect.
func (pf *provFlow) transferAssign(as *ast.AssignStmt, s provState) {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Multi-value call or type assertion: the first value carries
		// the tracked position throughout the module.
		pf.set(s, as.Lhs[0], pf.provOf(s, as.Rhs[0]))
		for _, lhs := range as.Lhs[1:] {
			pf.set(s, lhs, provUnknown)
		}
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	// Evaluate every right side against the pre-state first so swaps
	// (a, b = b, a) transfer correctly.
	provs := make([]provenance, len(as.Rhs))
	for i := range as.Rhs {
		provs[i] = pf.provOf(s, as.Rhs[i])
	}
	for i := range as.Lhs {
		pf.set(s, as.Lhs[i], provs[i])
	}
}

// set strongly updates a plain-identifier destination; any other
// destination shape is a write into memory, not a rebinding, and
// leaves the state untouched (the scan pass judges those).
func (pf *provFlow) set(s provState, lhs ast.Expr, p provenance) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := pf.pkg.ObjectOf(id)
	if obj == nil {
		return
	}
	if p == provUnknown {
		delete(s, obj)
		return
	}
	s[obj] = p
}

// projectTo applies the projection rules to a base provenance given
// the projected value's type.
func (pf *provFlow) projectTo(base provenance, t types.Type) provenance {
	switch base {
	case provShared, provBacking:
		if isReferenceType(t) {
			return provShared
		}
		return provBacking
	case provOwned:
		return provOwned
	}
	return provUnknown
}

// provOf classifies an expression against the current state.
func (pf *provFlow) provOf(s provState, e ast.Expr) provenance {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pf.pkg.ObjectOf(e)
		if obj == nil {
			return provUnknown
		}
		if p, ok := s[obj]; ok && p != provUnknown {
			return p
		}
		if pf.identProv != nil {
			return pf.identProv(s, obj)
		}
		return provUnknown
	case *ast.SelectorExpr:
		base := pf.provOf(s, e.X)
		if base == provUnknown {
			if pf.selectorProv != nil {
				return pf.selectorProv(s, e)
			}
			return provUnknown
		}
		return pf.projectTo(base, pf.pkg.TypeOf(e))
	case *ast.IndexExpr:
		return pf.projectTo(pf.provOf(s, e.X), pf.pkg.TypeOf(e))
	case *ast.SliceExpr:
		return pf.provOf(s, e.X) // a reslice shares the backing array
	case *ast.StarExpr:
		if p := pf.provOf(s, e.X); p == provShared {
			return provBacking // value copy of the shared object
		} else if p != provUnknown {
			return p
		}
		return provUnknown
	case *ast.UnaryExpr:
		return pf.provOf(s, e.X) // &x shares x's classification
	case *ast.CompositeLit:
		return provOwned
	case *ast.CallExpr:
		if pf.callProv != nil {
			return pf.callProv(s, e)
		}
		return provUnknown
	case *ast.TypeAssertExpr:
		return pf.provOf(s, e.X)
	}
	return provUnknown
}

// scan checks one block node's writes and calls against the state at
// its program point. Nested function literals are handed to the rule
// (with a state snapshot) instead of being walked inline — their body
// runs at some other time, under its own control flow. A range header
// evaluates only its operand and assigns its key and value; its body
// sits in blocks of its own.
func (pf *provFlow) scan(n ast.Node, s provState) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		pf.scan(rs.X, s)
		if rs.Tok == token.ASSIGN {
			for _, lhs := range []ast.Expr{rs.Key, rs.Value} {
				if lhs != nil {
					pf.checkWrite(s, lhs, rs.Pos())
				}
			}
		}
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if pf.onFuncLit != nil {
				pf.onFuncLit(x, cloneProv(s))
			}
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				pf.checkWrite(s, lhs, x.Pos())
			}
		case *ast.IncDecStmt:
			pf.checkWrite(s, x.X, x.Pos())
		case *ast.CallExpr:
			if isBuiltinCopy(pf.pkg, x) && len(x.Args) > 0 {
				if p := pf.provOf(s, x.Args[0]); p == provShared || p == provBacking {
					pf.emit(wkCopy, x, x.Pos())
				}
			}
			if pf.onCall != nil {
				pf.onCall(s, x)
			}
		}
		return true
	})
}

// checkWrite applies the shared trigger rules: field and pointer
// stores need a shared base (a value copy owns its fields), element
// stores fire even on a backing copy (the arrays are still shared).
func (pf *provFlow) checkWrite(s provState, lhs ast.Expr, pos token.Pos) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if pf.provOf(s, e.X) == provShared {
			pf.emit(wkField, e, pos)
		}
	case *ast.IndexExpr:
		if p := pf.provOf(s, e.X); p == provShared || p == provBacking {
			pf.emit(wkElem, e, pos)
		}
	case *ast.StarExpr:
		if pf.provOf(s, e.X) == provShared {
			pf.emit(wkPtr, e, pos)
		}
	}
}

func (pf *provFlow) emit(kind writeKind, e ast.Expr, pos token.Pos) {
	if pf.onWrite != nil {
		pf.onWrite(kind, e, pos)
	}
}

// isBuiltinCopy reports whether call invokes the copy builtin (and not
// some local function that happens to be named copy).
func isBuiltinCopy(pkg *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "copy" {
		return false
	}
	obj := pkg.ObjectOf(id)
	return obj == nil || obj.Pkg() == nil
}

// collectDefs gathers every object defined inside the function —
// parameters, := bindings, var declarations, range variables, nested
// literal parameters — so capture hooks can tell "defined here" from
// "captured from outside".
func collectDefs(pkg *Package, ft *ast.FuncType, body *ast.BlockStmt) map[types.Object]bool {
	defs := make(map[types.Object]bool)
	add := func(id *ast.Ident) {
		if obj := pkg.ObjectOf(id); obj != nil {
			defs[obj] = true
		}
	}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				add(name)
			}
		}
	}
	addFields(ft.Params)
	addFields(ft.Results)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						add(id)
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				add(name)
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				if id, ok := n.Key.(*ast.Ident); ok {
					add(id)
				}
				if id, ok := n.Value.(*ast.Ident); ok {
					add(id)
				}
			}
		case *ast.FuncLit:
			addFields(n.Type.Params)
			addFields(n.Type.Results)
		}
		return true
	})
	return defs
}
