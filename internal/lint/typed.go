package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// This file is the typed layer of the engine: Load type-checks the
// parsed packages with the stdlib go/types checker, so rules can resolve
// what an expression actually *is* (a context.Context behind a named
// interface, an *os.File behind an io.Closer, a map behind a named type
// from another package) instead of pattern-matching its spelling. The
// module's stdlib-only constraint holds: imports are resolved by a
// module-aware importer that type-checks in-module packages from the
// loaded sources and delegates standard-library paths to go/importer's
// source importer (which reads GOROOT/src — no compiled export data, no
// x/tools).
//
// Test files are parsed but never type-checked: external _test packages
// would need a second checker pass, and every rule but nakedgoroutine
// skips them. nakedgoroutine is the engine's one untyped path: in a
// test file (or a test-only directory like cmd/, which carries no type
// info at all) TypeOf and ObjectOf answer nil, and the rule accepts any
// .Wait() as a join there (isWaitGroupWait).

// modulePath extracts the module path from root/go.mod; it returns ""
// when there is no go.mod (fixtures without in-module imports), which
// simply means no import path is treated as in-module.
func modulePath(root string) string {
	f, err := os.Open(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// moduleImporter resolves imports during type-checking: in-module paths
// recursively against the loaded (or on-demand loaded) source packages,
// everything else through the stdlib source importer.
type moduleImporter struct {
	fset    *token.FileSet
	root    string
	module  string
	byDir   map[string]*Package
	std     types.Importer
	checked map[string]*types.Package // by import path
	pending map[string]bool           // import-cycle guard
	errs    []string                  // checker diagnostics, in check order
}

// Import implements types.Importer.
func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if tp, ok := im.checked[path]; ok {
		return tp, nil
	}
	dir, ok := im.moduleDir(path)
	if !ok {
		return im.std.Import(path)
	}
	pkg := im.byDir[dir]
	if pkg == nil {
		// The package is imported but was not matched by the load
		// patterns (e.g. linting cmd/... still needs internal/...).
		// Load it on demand; it is type-checked but not linted.
		byDir := make(map[string]*Package)
		if err := loadDir(im.fset, im.root, filepath.Join(im.root, filepath.FromSlash(dir)), byDir); err != nil {
			return nil, err
		}
		if pkg = byDir[dir]; pkg == nil {
			return nil, fmt.Errorf("lint: import %q matches no Go package under %s", path, dir)
		}
		im.byDir[dir] = pkg
	}
	if im.pending[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	tp := im.typeCheck(pkg)
	if tp == nil {
		return nil, fmt.Errorf("lint: import %q has only test files under %s", path, dir)
	}
	return tp, nil
}

// moduleDir maps an in-module import path to its module-relative
// directory; ok is false for out-of-module (stdlib) paths.
func (im *moduleImporter) moduleDir(path string) (string, bool) {
	if im.module == "" {
		return "", false
	}
	if path == im.module {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, im.module+"/"); ok {
		return rest, true
	}
	return "", false
}

// importPath is the inverse of moduleDir.
func (im *moduleImporter) importPath(dir string) string {
	if dir == "." || im.module == "" {
		return im.module
	}
	return im.module + "/" + dir
}

// typeCheck runs the go/types checker over pkg's non-test files,
// memoized by import path. It returns nil when the package has no
// non-test files (test-only directories like cmd/) — the package then
// simply carries no type info. Checker diagnostics are collected in
// im.errs, which Load turns into an error.
func (im *moduleImporter) typeCheck(pkg *Package) *types.Package {
	path := im.importPath(pkg.Dir)
	if path == "" {
		path = pkg.Dir // fixture without go.mod: any stable non-empty key
	}
	if tp, ok := im.checked[path]; ok {
		return tp
	}
	var files []*ast.File
	for _, f := range pkg.Files {
		if !f.Test {
			files = append(files, f.AST)
		}
	}
	if len(files) == 0 {
		return nil
	}
	im.pending[path] = true
	defer delete(im.pending, path)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: im,
		Error:    func(err error) { im.errs = append(im.errs, err.Error()) },
	}
	// Every diagnostic reaches Error; Check's result is the first of them.
	tp, _ := conf.Check(path, im.fset, files, info)
	pkg.Types = tp
	pkg.Info = info
	im.checked[path] = tp
	return tp
}

// TypeOf resolves the static type of e, or nil for an expression the
// checker never saw (test files, test-only packages).
func (p *Package) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves the object an identifier denotes (use or def), or
// nil for an identifier the checker never saw (test files, test-only
// packages).
func (p *Package) ObjectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// isPkgFunc reports whether the call's callee resolves, by type
// information, to the package-level function pkgPath.name (robust
// against import renaming and shadowed package identifiers).
func (p *Package) isPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isContextType reports whether t is context.Context, an alias of it,
// or an interface type that includes the four Context methods (named
// interfaces embedding context.Context type-check to exactly that).
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if n, ok := t.(*types.Named); ok {
		if obj := n.Obj(); obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "context" && obj.Name() == "Context" {
			return true
		}
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	need := 4
	for i := 0; i < iface.NumMethods(); i++ {
		switch iface.Method(i).Name() {
		case "Deadline", "Done", "Err", "Value":
			need--
		}
	}
	return need == 0
}

// isNamedType reports whether t (after unaliasing and pointer
// stripping when deref is set) is the named type name declared in a
// package whose import path is pkgSuffix or ends in "/"+pkgSuffix.
// Matching by path suffix keeps the check valid both for the real
// module ("mcfs/internal/data") and for fixture modules ("fix/data").
func isNamedType(t types.Type, deref bool, pkgSuffix, name string) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if deref {
		if ptr, ok := t.(*types.Pointer); ok {
			t = types.Unalias(ptr.Elem())
		}
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgSuffix || strings.HasSuffix(path, "/"+pkgSuffix)
}

// isOSFileType reports whether t is *os.File.
func isOSFileType(t types.Type) bool {
	if t == nil {
		return false
	}
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}

// firstResultType unwraps t to the type of the first value it yields:
// the sole type, or the first element of a tuple (multi-value call).
func firstResultType(t types.Type) types.Type {
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return nil
		}
		return tup.At(0).Type()
	}
	return t
}
