package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
)

// SingleWriter confines the Reallocator to the goroutine holding the
// serving engine's one `writer` value (DESIGN.md §12), reads included:
// the writer waits in its slot (a field of type chan *writer) while
// nobody writes. A flow-sensitive dataflow over every function and
// function literal of internal/serve tracks which writer variables are
// held; DESIGN.md §10 lists what it reports.
type SingleWriter struct{}

// Name implements Rule.
func (SingleWriter) Name() string { return "single-writer" }

// Doc implements Rule.
func (SingleWriter) Doc() string {
	return "only the goroutine holding the writer may call Reallocator methods; the writer moves only through its slot"
}

// Check implements Rule.
func (SingleWriter) Check(m *Module, report ReportFunc) {
	for _, pkg := range m.Pkgs {
		if pkg.Dir != "internal/serve" || pkg.Types == nil {
			continue
		}
		c := swCheck{pkg: pkg, report: report}
		scope := pkg.Types.Scope()
		if tn, ok := scope.Lookup("writer").(*types.TypeName); ok {
			c.writer = tn.Type()
		}
		kept := func(v *types.Var) {
			if isNamedType(v.Type(), true, "dynamic", "Reallocator") { // the root package's alias resolves to it
				report(pkg.fileAt(v.Pos()), v.Pos(), "Reallocator %s kept outside the writer; only the goroutine holding the writer may reach it", v.Name())
			}
		}
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if v, ok := obj.(*types.Var); ok {
				kept(v)
			} else if st, ok := obj.Type().Underlying().(*types.Struct); ok && obj.Type() != c.writer {
				for i := 0; i < st.NumFields(); i++ {
					kept(st.Field(i))
				}
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body != nil {
						c.analyze(fn, pkg.ObjectOf(fn.Name).Type().(*types.Signature), fn.Body, fn.Recv == nil && fn.Name.Name == "New")
					}
				case *ast.FuncLit:
					c.analyze(fn, pkg.TypeOf(fn).(*types.Signature), fn.Body, false)
				}
				return !f.Test // test files are not type-checked
			})
		}
	}
}

// swCheck analyzes one function of pkg, fn; writer is the package's
// writer type (nil: none, so no Reallocator call is accepted).
type swCheck struct {
	pkg    *Package
	writer types.Type
	report ReportFunc
	fn     ast.Node
	params heldSet // writer parameters: held throughout, never sent back
	inNew  bool
}

// heldSet is the dataflow state: is each writer variable held on every path?
type heldSet map[*types.Var]bool

// analyze runs the dataflow over one body, on a copy of c.
func (c swCheck) analyze(fn ast.Node, sig *types.Signature, body *ast.BlockStmt, inNew bool) {
	c.fn, c.params, c.inNew = fn, heldSet{}, inNew
	for i := 0; i < sig.Params().Len(); i++ {
		if v := sig.Params().At(i); c.isWriter(v.Type()) {
			c.params[v] = true
		}
	}
	if r := sig.Recv(); r != nil && c.isWriter(r.Type()) {
		c.params[r] = true
	}
	quiet := c // the fixpoint's pass: the same effects, no findings
	quiet.report = func(*File, token.Pos, string, ...any) {}
	d := dataflow[heldSet]{
		seed:  func() heldSet { return maps.Clone(c.params) },
		clone: maps.Clone[heldSet],
		merge: func(dst, src heldSet) bool {
			n := len(dst)
			maps.DeleteFunc(dst, func(v *types.Var, held bool) bool { return !held || !src[v] })
			return len(dst) != n
		},
		step: quiet.scan,
	}
	g := buildCFG(body)
	in := d.fixpoint(g)
	for _, b := range g.blocks {
		if s, ok := in[b]; ok { // an unreachable block has no state
			s = maps.Clone(s)
			for _, n := range b.nodes {
				c.scan(n, s)
			}
		}
	}
}

func (c *swCheck) isWriter(t types.Type) bool {
	return c.writer != nil && (types.Identical(t, c.writer) || types.Identical(t, types.NewPointer(c.writer)))
}

// writerVar returns the local writer variable or parameter e names, or nil.
func (c *swCheck) writerVar(e ast.Expr) *types.Var {
	id, _ := ast.Unparen(e).(*ast.Ident)
	if v, ok := c.pkg.ObjectOf(id).(*types.Var); ok && !v.IsField() && v.Parent() != c.pkg.Types.Scope() && c.isWriter(v.Type()) {
		return v
	}
	return nil
}

// isSlot reports whether e selects a field of type chan writer: a slot.
func (c *swCheck) isSlot(e ast.Expr) bool {
	_, sel := ast.Unparen(e).(*ast.SelectorExpr)
	ch, ok := c.pkg.TypeOf(e).Underlying().(*types.Chan)
	return sel && ok && c.isWriter(ch.Elem())
}

// acquires reports whether assigning e hands over the writer: a receive
// from the slot, or a writer literal (reported outside New by scan).
func (c *swCheck) acquires(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		return e.Op == token.ARROW && c.isSlot(e.X) || e.Op == token.AND && c.acquires(e.X)
	case *ast.CompositeLit:
		return c.isWriter(c.pkg.TypeOf(e))
	}
	return false
}

// scan checks the Reallocator methods and writer variables the CFG node n
// mentions against s and applies n's effect (closures are analyzed apart).
func (c *swCheck) scan(n ast.Node, s heldSet) {
	if r, ok := n.(*ast.RangeStmt); ok {
		n = &ast.RangeStmt{Key: r.Key, Value: r.Value, X: r.X, Body: &ast.BlockStmt{}}
	}
	stack := []ast.Node{nil} // the nodes enclosing the one visited, innermost last
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case nil:
			stack = stack[:len(stack)-1]
			return false
		case *ast.FuncLit:
			return false
		case *ast.CompositeLit:
			if !c.inNew && c.isWriter(c.pkg.TypeOf(x)) {
				c.report(c.pkg.fileAt(x.Pos()), x.Pos(), "writer built outside New; a Server has one writer, which every other function takes from the slot")
			}
		case *ast.Ident:
			if v := c.writerVar(x); v != nil {
				c.use(v, x, n, stack, s)
			}
		case *ast.SelectorExpr:
			fn, _ := c.pkg.ObjectOf(x.Sel).(*types.Func)
			if base, ok := ast.Unparen(x.X).(*ast.SelectorExpr); fn != nil && (!ok || c.writerVar(base.X) == nil) {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isNamedType(recv.Type(), true, "dynamic", "Reallocator") {
					c.report(c.pkg.fileAt(x.Pos()), x.Sel.Pos(), "call to Reallocator method %s outside the writer; only the goroutine holding the writer may call it", fn.Name())
				}
			}
		}
		stack = append(stack, x)
		return true
	})
}

// use checks the mention id, in CFG node n under stack, of the writer
// variable v; binding v takes the writer, sending it to the slot gives it up.
func (c *swCheck) use(v *types.Var, id *ast.Ident, n ast.Node, stack []ast.Node, s heldSet) {
	how := "stored or copied; a writer may only be called through, passed to a writer parameter of the package, or sent back to the slot"
	switch p := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		if slices.Contains(p.Lhs, ast.Expr(id)) { // a binding: v holds the writer only if it is taken here
			s[v] = len(p.Rhs) == 1 && c.acquires(p.Rhs[0])
			return
		}
	case *ast.SelectorExpr:
		if p.X == ast.Expr(id) {
			how = ""
		}
	case *ast.CallExpr: // a writer parameter of a function or method of the package
		if fn, ok := resolveCallee(c.pkg, p).(*types.Func); ok && fn.Pkg() == c.pkg.Types {
			params, i := fn.Type().(*types.Signature).Params(), slices.Index(p.Args, ast.Expr(id))
			if i < params.Len() && c.isWriter(params.At(i).Type()) {
				how = ""
			}
		}
	case *ast.SendStmt:
		if p.Value == ast.Expr(id) && c.isSlot(p.Chan) {
			defer delete(s, v) // sent back: held no more
			how = ""
			if c.params[v] {
				how = "sent back to the slot by a function that did not take it from there"
			}
		}
	}
	switch n.(type) {
	case *ast.GoStmt, *ast.DeferStmt:
		how = "passed to a go or defer statement, which may run it on another goroutine or after it is sent back"
	}
	if v.Pos() < c.fn.Pos() || v.Pos() >= c.fn.End() {
		how = "captured by a function literal, which may run on another goroutine or after it is sent back"
	}
	switch {
	case how != "":
		c.report(c.pkg.fileAt(id.Pos()), id.Pos(), "writer %s escapes the goroutine holding it: %s", v.Name(), how)
	case !s[v]:
		c.report(c.pkg.fileAt(id.Pos()), id.Pos(), "writer %s used where it is not held on every path: it was sent back to the slot, or never taken from it", v.Name())
	}
}

// resolveCallee resolves the call's static callee object, or nil.
func resolveCallee(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkg.ObjectOf(fun)
	case *ast.SelectorExpr:
		return pkg.ObjectOf(fun.Sel)
	}
	return nil
}
