package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// APIParity enforces the PR-2 API contract in the root package: an
// exported Solve*/Improve*/New* function that has a *Ctx sibling is a
// convenience wrapper and must contain no logic of its own — its body
// must be exactly `return FooCtx(context.Background(), ...)`. Anything
// else lets the two entry points drift apart (an option handled in one
// but not the other, a deadline layered twice), which is precisely the
// class of bug a wrapper pair invites.
//
// The wrapper shape is verified semantically: the callee must resolve
// to the package-level *Ctx sibling (a local variable shadowing it does
// not pass) and the first argument must resolve to the real
// context.Background (a local helper named `context.Background` behind
// a renamed import does not).
//
// The rule's second half guards the Algorithm registry: algorithms.go is
// the root package's single binding between public algorithm names and
// the internal solver implementations, and every root Solve entry point
// routes through it. Any other root file that reaches the baseline
// package or a core Solve* function directly has re-opened a private
// dispatch path that the registry (and everything enumerating it —
// commands, the bench harness, the serving daemon) will not see.
type APIParity struct{}

// Name implements Rule.
func (APIParity) Name() string { return "api-parity" }

// Doc implements Rule.
func (APIParity) Doc() string {
	return "exported Solve*/Improve*/New* with a *Ctx sibling must delegate to it with context.Background(); internal solvers bind only in algorithms.go"
}

// apiParityPrefixes are the entry-point families the rule covers.
var apiParityPrefixes = []string{"Solve", "Improve", "New"}

// Check implements Rule.
func (APIParity) Check(pkg *Package, report ReportFunc) {
	if pkg.Dir != "." {
		return
	}
	funcs := make(map[string]*ast.FuncDecl)
	fileOf := make(map[string]*File)
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			funcs[fd.Name.Name] = fd
			fileOf[fd.Name.Name] = f
		}
	}

	names := make([]string, 0, len(funcs))
	for name := range funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !ast.IsExported(name) || strings.HasSuffix(name, "Ctx") || !hasParityPrefix(name) {
			continue
		}
		if _, ok := funcs[name+"Ctx"]; !ok {
			continue
		}
		if !delegatesToCtx(pkg, funcs[name], name+"Ctx") {
			report(fileOf[name], funcs[name].Pos(),
				"%s has a %sCtx sibling but is not the single-statement wrapper `return %sCtx(context.Background(), ...)`",
				name, name, name)
		}
	}

	checkRegistryBypass(pkg, report)
}

// registryFile is the one root file allowed to bind algorithm names to
// internal solver implementations.
const registryFile = "algorithms.go"

// registrySolverPkgs are the internal packages whose solve entry points
// must only be reached through the registry: the baseline package
// entirely, and the core package's Solve* family (core's non-Solve
// helpers — option types, AssignToSelection — remain fair game for the
// rest of the root package).
var registrySolverPkgs = map[string]func(name string) bool{
	"mcfs/internal/baseline": func(string) bool { return true },
	"mcfs/internal/core":     func(name string) bool { return strings.HasPrefix(name, "Solve") },
}

// checkRegistryBypass reports root-package selector references into the
// guarded internal solver packages outside algorithms.go. The package
// qualifier is resolved to its import path, so a renamed import does not
// hide the bypass.
func checkRegistryBypass(pkg *Package, report ReportFunc) {
	for _, f := range pkg.Files {
		if f.Test || f.Path == registryFile {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pkg.ObjectOf(x).(*types.PkgName)
			if !ok {
				return true
			}
			guarded, ok := registrySolverPkgs[pn.Imported().Path()]
			if !ok || !guarded(sel.Sel.Name) {
				return true
			}
			report(f, sel.Pos(),
				"%s.%s bypasses the Algorithm registry; bind internal solvers in %s and dispatch through Algorithm.Solve",
				x.Name, sel.Sel.Name, registryFile)
			return true
		})
	}
}

// hasParityPrefix reports whether name belongs to a covered family.
func hasParityPrefix(name string) bool {
	for _, p := range apiParityPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// delegatesToCtx reports whether fd's body is exactly
// `return want(context.Background(), ...)`, with the callee resolving to
// the package-level sibling and the first argument to the real
// context.Background.
func delegatesToCtx(pkg *Package, fd *ast.FuncDecl, want string) bool {
	if fd.Body == nil || len(fd.Body.List) != 1 {
		return false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != want {
		return false
	}
	if f, ok := pkg.ObjectOf(fun).(*types.Func); !ok || f.Pkg() != pkg.Types || f.Parent() != pkg.Types.Scope() {
		return false
	}
	bg, ok := call.Args[0].(*ast.CallExpr)
	return ok && len(bg.Args) == 0 && pkg.isPkgFunc(bg, "context", "Background")
}
