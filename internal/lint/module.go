package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Module is the whole-run context handed to ModuleRules: every loaded
// package, plus the cross-package function summaries (summary.go)
// computed over the typed ones. Package rules see one package at a
// time; module rules see the seams between them — which is exactly
// where the serve-era invariants (sentinel parity, single-writer
// confinement, provenance escaping through an exported helper) live.
type Module struct {
	Pkgs []*Package

	byDir     map[string]*Package
	summaries map[string]*pkgSummary // keyed by types.Package.Path()
}

// newModule assembles the module context: packages are summarized in
// import-dependency order so a summary can fold in the summaries of
// the packages it calls into.
func newModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:      pkgs,
		byDir:     make(map[string]*Package, len(pkgs)),
		summaries: make(map[string]*pkgSummary, len(pkgs)),
	}
	for _, p := range pkgs {
		m.byDir[p.Dir] = p
	}
	for _, p := range m.typedInImportOrder() {
		m.summaries[p.Types.Path()] = summarizePackage(m, p)
	}
	return m
}

// PackageByDir returns the package at the module-relative directory, or
// nil when the run did not load it.
func (m *Module) PackageByDir(dir string) *Package { return m.byDir[dir] }

// summaryFor returns the summary of the package with the given import
// path, or nil when it was not part of the run (out-of-module, or a
// test-only package).
func (m *Module) summaryFor(path string) *pkgSummary { return m.summaries[path] }

// funcSummaryOf resolves the summary of the function or method obj
// denotes, or nil when its package was not summarized.
func (m *Module) funcSummaryOf(obj types.Object) *funcSummary {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	ps := m.summaryFor(fn.Pkg().Path())
	if ps == nil {
		return nil
	}
	return ps.funcs[summaryKey(fn)]
}

// typedInImportOrder returns the typed packages sorted so that every
// package appears after the in-run packages it imports (imports are
// acyclic in valid Go; ties resolve by Dir for determinism).
func (m *Module) typedInImportOrder() []*Package {
	byPath := make(map[string]*Package)
	var typed []*Package
	for _, p := range m.Pkgs {
		if p.Types != nil {
			typed = append(typed, p)
			byPath[p.Types.Path()] = p
		}
	}
	sort.Slice(typed, func(i, j int) bool { return typed[i].Dir < typed[j].Dir })

	var order []*Package
	state := make(map[*Package]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return
		}
		state[p] = 1
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok && state[dep] != 1 {
				visit(dep)
			}
		}
		state[p] = 2
		order = append(order, p)
	}
	for _, p := range typed {
		visit(p)
	}
	return order
}

// fileAt maps a position back to the file of pkg containing it — how a
// module rule reports a finding discovered while looking at resolved
// objects rather than walking one file.
func (p *Package) fileAt(pos token.Pos) *File {
	for _, f := range p.Files {
		if f.AST.FileStart <= pos && pos <= f.AST.FileEnd {
			return f
		}
	}
	return nil
}

// funcDecls indexes the package's function declarations (with bodies)
// by their resolved object. Test files are skipped, matching the rest
// of the typed engine.
func (p *Package) funcDecls() map[types.Object]*declSite {
	decls := make(map[types.Object]*declSite)
	for _, f := range p.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.AST.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := p.ObjectOf(fd.Name); obj != nil {
					decls[obj] = &declSite{file: f, decl: fd}
				}
			}
		}
	}
	return decls
}
