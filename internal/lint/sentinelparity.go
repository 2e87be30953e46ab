package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// SentinelParity keeps the public error taxonomy and the serving
// layer's HTTP mapping in lock-step: every exported Err* sentinel of
// the root package must appear exactly once in serve's error table
// (statusOf), and no sentinel — root or internal — may be mapped
// twice (a duplicate arm is dead code that silently shadows the
// intended status). Adding a sentinel to the API without teaching the
// server what to return for it is exactly the kind of cross-package
// drift a per-package rule cannot see, so this is a module rule: it
// stays silent unless the run includes both the root package and
// internal/serve with type information.
type SentinelParity struct{}

// Name implements Rule.
func (SentinelParity) Name() string { return "sentinel-http-parity" }

// Doc implements Rule.
func (SentinelParity) Doc() string {
	return "every exported root Err* sentinel maps exactly once in serve's statusOf error table"
}

// Check implements Rule for direct single-package use; the rule needs
// two packages, so a single-package run is always silent.
func (r SentinelParity) Check(pkg *Package, report ReportFunc) {
	r.CheckModule(newModule([]*Package{pkg}), report)
}

// CheckModule implements ModuleRule.
func (SentinelParity) CheckModule(m *Module, report ReportFunc) {
	root := m.PackageByDir(".")
	serve := m.PackageByDir("internal/serve")
	if root == nil || serve == nil || root.Types == nil || serve.Types == nil {
		return
	}

	// The error table: serve's statusOf function.
	scope := serve.Types.Scope()
	tableObj := scope.Lookup("statusOf")
	decls := serve.funcDecls()
	var table *declSite
	if tableObj != nil {
		table = decls[tableObj]
	}
	if table == nil {
		return
	}

	// Count every sentinel reference inside the table, keyed by the
	// defining package path and name (object identity is shared across
	// packages by the loader, but keying by path+name keeps the rule
	// robust to re-typechecks).
	type sentinelKey struct{ path, name string }
	refs := make(map[sentinelKey]int)
	refPos := make(map[sentinelKey]ast.Expr)
	ast.Inspect(table.decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := serve.ObjectOf(id).(*types.Var)
		if !ok || obj.Pkg() == nil || !strings.HasPrefix(obj.Name(), "Err") {
			return true
		}
		k := sentinelKey{obj.Pkg().Path(), obj.Name()}
		refs[k]++
		refPos[k] = id // last occurrence: duplicates report on the dead arm
		return true
	})

	// Root-package sentinels: exported package-level Err* variables.
	rootScope := root.Types.Scope()
	names := rootScope.Names()
	sort.Strings(names)
	for _, name := range names {
		obj, ok := rootScope.Lookup(name).(*types.Var)
		if !ok || !obj.Exported() || !strings.HasPrefix(name, "Err") {
			continue
		}
		k := sentinelKey{root.Types.Path(), name}
		switch n := refs[k]; {
		case n == 0:
			if f := root.fileAt(obj.Pos()); f != nil {
				report(f, obj.Pos(),
					"exported sentinel %s has no mapping in serve's error table (statusOf); clients would see the default status for it", name)
			}
		case n > 1:
			report(table.file, refPos[k].Pos(),
				"sentinel %s is mapped %d times in serve's error table; the later arms are dead", name, n)
		}
		delete(refs, k)
	}

	// Vice versa: any other sentinel the table references must appear
	// exactly once too — a duplicated internal sentinel arm is equally
	// dead code.
	var dup []sentinelKey
	for k, n := range refs {
		if n > 1 {
			dup = append(dup, k)
		}
	}
	sort.Slice(dup, func(i, j int) bool {
		if dup[i].path != dup[j].path {
			return dup[i].path < dup[j].path
		}
		return dup[i].name < dup[j].name
	})
	for _, k := range dup {
		report(table.file, refPos[k].Pos(),
			"sentinel %s is mapped %d times in serve's error table; the later arms are dead", k.name, refs[k])
	}
}
