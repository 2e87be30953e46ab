package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// SingleWriter confines the Reallocator to the goroutine holding the
// serving engine's one `writer` value (DESIGN.md §12), reads included:
// the writer waits in its slot (a field of type chan *writer) while
// nobody writes. It reads every function and function literal of
// internal/serve in source order: a writer parameter is held throughout,
// and a local writer from the statement that takes it to the first
// put-back in the same statement list. DESIGN.md §10 lists what it
// reports.
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
	inNew  bool
	params map[*types.Var]bool // writer parameters: held throughout, never sent back
	// spans maps each statement that takes the writer at the head of a
	// span to where the span ends; held maps each local writer to where
	// the span its latest binding started ends (token.NoPos: none).
	spans map[*ast.AssignStmt]token.Pos
	held  map[*types.Var]token.Pos
}

// analyze reads one body in source order, on a copy of c; the function
// literals inside it are analyzed apart.
func (c swCheck) analyze(fn ast.Node, sig *types.Signature, body *ast.BlockStmt, inNew bool) {
	c.fn, c.inNew = fn, inNew
	c.params, c.spans, c.held = map[*types.Var]bool{}, map[*ast.AssignStmt]token.Pos{}, map[*types.Var]token.Pos{}
	for i := 0; i < sig.Params().Len(); i++ {
		if v := sig.Params().At(i); c.isWriter(v.Type()) {
			c.params[v] = true
		}
	}
	if r := sig.Recv(); r != nil && c.isWriter(r.Type()) {
		c.params[r] = true
	}
	stack := []ast.Node{nil} // the nodes enclosing the one visited, innermost last
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case nil:
			stack = stack[:len(stack)-1]
			return false
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			c.startSpans(x.List, x.End())
		case *ast.CaseClause:
			c.startSpans(x.Body, x.End())
		case *ast.CommClause: // the comm binds for the clause's body
			c.startSpans(append([]ast.Stmt{x.Comm}, x.Body...), x.End())
		case *ast.BranchStmt:
			if x.Tok == token.GOTO {
				c.report(c.pkg.fileAt(x.Pos()), x.Pos(), "goto: single-writer reads source order as the order statements run, and a jump could re-enter a writer's span after its put-back")
			}
		case *ast.CompositeLit:
			if !c.inNew && c.isWriter(c.pkg.TypeOf(x)) {
				c.report(c.pkg.fileAt(x.Pos()), x.Pos(), "writer built outside New; a Server has one writer, which every other function takes from the slot")
			}
		case *ast.Ident:
			if v := c.writerVar(x); v != nil {
				c.use(v, x, stack)
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

// startSpans records the spans list starts: a statement `v := <-slot`
// (or a writer literal) holds v up to the first later `slot <- v` of
// list, or to end when none follows.
func (c *swCheck) startSpans(list []ast.Stmt, end token.Pos) {
	for i, st := range list {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || !c.acquires(as.Rhs[0]) {
			continue
		}
		v := c.writerVar(as.Lhs[0])
		c.spans[as] = end
		for _, later := range list[i+1:] {
			if send, ok := later.(*ast.SendStmt); ok && v != nil && c.writerVar(send.Value) == v && c.isSlot(send.Chan) {
				c.spans[as] = send.End()
				break
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
// from the slot, or a writer literal (reported outside New by analyze).
func (c *swCheck) acquires(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		return e.Op == token.ARROW && c.isSlot(e.X) || e.Op == token.AND && c.acquires(e.X)
	case *ast.CompositeLit:
		return c.isWriter(c.pkg.TypeOf(e))
	}
	return false
}

// use checks the mention id, under stack, of the writer variable v. A
// binding of v starts the span recorded for it, if any, and ends the
// one before it.
func (c *swCheck) use(v *types.Var, id *ast.Ident, stack []ast.Node) {
	held := c.params[v] || id.Pos() < c.held[v]
	how := "escapes the goroutine holding it: stored or copied; a writer may only be called through, passed to a writer parameter of the package, or sent back to the slot"
	switch p := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		if slices.Contains(p.Lhs, ast.Expr(id)) {
			c.held[v] = c.spans[p]
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
			switch {
			case c.params[v]:
				how = "escapes the goroutine holding it: sent back to the slot by a function that did not take it from there"
			case held && p.End() != c.held[v]: // not the put-back that ends v's span
				how = "sent back to the slot in a nested block; put it back in the statement list that took it"
			default:
				how = ""
			}
		}
	}
	for _, n := range stack {
		switch n.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			how = "escapes the goroutine holding it: passed to a go or defer statement, which may run it on another goroutine or after it is sent back"
		}
	}
	if v.Pos() < c.fn.Pos() || v.Pos() >= c.fn.End() {
		how = "escapes the goroutine holding it: captured by a function literal, which may run on another goroutine or after it is sent back"
	}
	if how == "" && !held {
		how = "used where it is not held: outside the span from the statement that took it from the slot to its put-back"
	}
	if how != "" {
		c.report(c.pkg.fileAt(id.Pos()), id.Pos(), "writer %s %s", v.Name(), how)
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
