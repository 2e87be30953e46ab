package lint

import "go/token"

// Module is the whole-run context handed to every rule: every loaded
// package, found by its directory. Most rules judge one package at a
// time by walking Pkgs; sentinel parity reads the seam between the
// root package and internal/serve.
type Module struct {
	Pkgs []*Package

	byDir map[string]*Package
}

// newModule assembles the module context.
func newModule(pkgs []*Package) *Module {
	m := &Module{Pkgs: pkgs, byDir: make(map[string]*Package, len(pkgs))}
	for _, p := range pkgs {
		m.byDir[p.Dir] = p
	}
	return m
}

// PackageByDir returns the package at the module-relative directory, or
// nil when the run did not load it.
func (m *Module) PackageByDir(dir string) *Package { return m.byDir[dir] }

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
