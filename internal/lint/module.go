package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Module is the whole-run context handed to every rule: every loaded
// package, plus an index of the functions and methods they declare, so
// a rule can follow a call into its callee whichever loaded package
// declares it. Most rules judge one package at a time by walking Pkgs;
// the rest read the seams between packages — which is exactly where the
// serve-era invariants (sentinel parity, single-writer confinement,
// provenance crossing into a callee of another package) live.
type Module struct {
	Pkgs []*Package

	byDir map[string]*Package
	decls map[types.Object]*declSite
}

// newModule assembles the module context.
func newModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:  pkgs,
		byDir: make(map[string]*Package, len(pkgs)),
		decls: make(map[types.Object]*declSite),
	}
	for _, p := range pkgs {
		m.byDir[p.Dir] = p
		for obj, site := range p.funcDecls() {
			m.decls[obj] = site
		}
	}
	return m
}

// PackageByDir returns the package at the module-relative directory, or
// nil when the run did not load it.
func (m *Module) PackageByDir(dir string) *Package { return m.byDir[dir] }

// declOf returns the declaration of the function or method obj denotes
// (the generic declaration for an instantiation), or nil when no loaded
// package declares it with a body: builtins, interface methods, function
// values, and packages outside the run.
func (m *Module) declOf(obj types.Object) *declSite {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return m.decls[fn.Origin()]
}

// declSite is one function declaration with the file and package that
// hold it, which is what analyzing or reporting inside it needs.
type declSite struct {
	pkg  *Package
	file *File
	decl *ast.FuncDecl
}

// fileAt maps a position back to the file of pkg containing it — how a
// rule reports a finding discovered while looking at resolved
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
					decls[obj] = &declSite{pkg: p, file: f, decl: fd}
				}
			}
		}
	}
	return decls
}
