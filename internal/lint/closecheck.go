package lint

import (
	"go/ast"
	"strings"
)

// CloseCheck guards the CLIs' write paths: inside cmd/, a bare or
// deferred `f.Close()` on an *os.File whose error is discarded is a
// violation. For a file being written, a failed Close can be the only
// sign of a short write — the PR-1 audit found "wrote" confirmations
// printing after the data silently failed to reach disk. Read-path
// closes that are deliberately unchecked must say so with
// //lint:ignore closecheck <reason>.
//
// The rule tracks what an expression *is* rather than how it was
// produced: any identifier whose static type is *os.File counts
// (parameters, struct fields' pointees, helper returns), and so does an
// identifier of any type that was assigned a value of static type
// *os.File — which follows the file through interface conversions
// (`var c io.Closer = f; c.Close()`).
type CloseCheck struct{}

// Name implements Rule.
func (CloseCheck) Name() string { return "closecheck" }

// Doc implements Rule.
func (CloseCheck) Doc() string {
	return "no discarded (*os.File).Close() in cmd/ — check the error or annotate why not"
}

// Check implements Rule.
func (CloseCheck) Check(m *Module, report ReportFunc) {
	for _, pkg := range m.Pkgs {
		if pkg.Dir != "cmd" && !strings.HasPrefix(pkg.Dir, "cmd/") {
			continue
		}
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkCloseFunc(pkg, f, fd.Type, fd.Body, nil, report)
				}
			}
		}
	}
}

// fileEvidence reports whether an expression's static type is *os.File.
// For calls the first result of a multi-value return is what gets bound.
func fileEvidence(pkg *Package, e ast.Expr) bool {
	return isOSFileType(firstResultType(pkg.TypeOf(e)))
}

// checkCloseFunc scans one function (and, recursively, its closures —
// which capture the enclosing files) for discarded Close calls on
// identifiers that verifiably hold an *os.File.
func checkCloseFunc(pkg *Package, f *File, ft *ast.FuncType, body *ast.BlockStmt, outer map[string]bool, report ReportFunc) {
	files := make(map[string]bool)
	for name := range outer {
		files[name] = true
	}
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			if len(field.Names) > 0 && isOSFileType(pkg.TypeOf(field.Names[0])) {
				for _, name := range field.Names {
					files[name.Name] = true
				}
			}
		}
	}
	// Two passes so a later alias (w = f) still resolves; the tracking
	// is flow-insensitive on purpose — over-approximating which idents
	// hold files can only surface more discarded closes, never hide one.
	for range [2]struct{}{} {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				tracked := fileEvidence(pkg, n.Rhs[0])
				if id, ok := n.Rhs[0].(*ast.Ident); ok && files[id.Name] {
					tracked = true
				}
				if tracked {
					if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						files[id.Name] = true
					}
				}
			case *ast.ValueSpec:
				// `var c io.Closer = f`: the declared names hold the file.
				if len(n.Values) == 1 && fileEvidence(pkg, n.Values[0]) {
					for _, name := range n.Names {
						if name.Name != "_" {
							files[name.Name] = true
						}
					}
				}
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkCloseFunc(pkg, f, n.Type, n.Body, files, report)
			return false
		case *ast.ExprStmt:
			if name, ok := discardedClose(pkg, n.X, files); ok {
				report(f, n.Pos(),
					"error from %s.Close() is discarded; on a write path a failed Close can be the only sign of a short write — check it (or //lint:ignore closecheck <reason> for a read path)", name)
			}
		case *ast.DeferStmt:
			if name, ok := discardedClose(pkg, n.Call, files); ok {
				report(f, n.Pos(),
					"deferred %s.Close() discards its error; close write-path files explicitly and check the error (or //lint:ignore closecheck <reason> for a read path)", name)
			}
		}
		return true
	})
}

// discardedClose reports whether e is `name.Close()` on an expression
// that holds a file: a tracked identifier, or any expression whose
// static type is *os.File — a field, a map entry, a call result.
func discardedClose(pkg *Package, e ast.Expr, files map[string]bool) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok && files[id.Name] {
		return id.Name, true
	}
	if isOSFileType(pkg.TypeOf(sel.X)) {
		return exprString(sel.X), true
	}
	return "", false
}

// exprString renders a short description of e for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return "expression"
}
