package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the harness's byte-identical-output contract in
// non-test library code (the root package and everything under
// internal/): no time.Now in solver code (wall clock readings leak into
// results; internal/bench is exempt because measured runtime *is* its
// output), no package-global math/rand functions (unseeded, and shared
// mutable state across goroutines — every random choice must flow from
// an explicit seeded *rand.Rand), and no ranging over a map where the
// body appends to a slice or writes output (Go randomizes map iteration
// order, so the result ordering would differ run to run; iterate a
// sorted key slice instead).
//
// The map rule fires on *any* expression whose static type is a map —
// named map types, maps behind struct fields from other packages,
// map-returning methods. time.Now and the rand functions are resolved
// through the checker, so an import renamed to `clock` does not hide a
// call.
type Determinism struct{}

// Name implements Rule.
func (Determinism) Name() string { return "determinism" }

// Doc implements Rule.
func (Determinism) Doc() string {
	return "no time.Now / global math/rand / order-sensitive map iteration in non-test library code"
}

// globalRandFuncs are the package-level math/rand functions that draw
// from the shared unseeded source. Constructors (New, NewSource,
// NewZipf) are the sanctioned alternative and stay allowed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// timeNowExempt lists the packages allowed to call time.Now: layers
// whose *output* is wall-clock measurement. internal/bench measures
// runtimes; internal/obs records elapsed phase time (observability is
// strictly passive — the traced-vs-untraced byte-identity tests in
// internal/bench pin that the readings never feed back into solver
// output). Solver packages that want timings route them through these
// layers instead of earning an entry here.
var timeNowExempt = map[string]bool{
	"internal/bench": true,
	"internal/obs":   true,
}

// orderSensitiveCalls are callee names that make a map-iteration body
// order-sensitive: growing a slice or emitting output.
var orderSensitiveCalls = map[string]bool{
	"append": true,
	"Write":  true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// Check implements Rule.
func (Determinism) Check(pkg *Package, report ReportFunc) {
	if pkg.Dir != "." && !strings.HasPrefix(pkg.Dir, "internal/") {
		return
	}
	banTimeNow := !timeNowExempt[pkg.Dir]
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if banTimeNow && isTimeNow(pkg, n) {
					report(f, n.Pos(),
						"time.Now is nondeterministic solver input; route timings through an exempt measurement layer (internal/bench, internal/obs) or annotate the instrumentation")
				}
			case *ast.CallExpr:
				if name, ok := globalRandCall(pkg, n); ok {
					report(f, n.Pos(),
						"global rand.%s draws from the shared unseeded source; use a seeded *rand.Rand", name)
				}
			}
			return true
		})
		for _, decl := range f.AST.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMapRanges(pkg, f, fd, report)
			}
		}
	}
}

// isTimeNow recognizes the time.Now selector by its resolved object
// (robust to import renaming).
func isTimeNow(pkg *Package, sel *ast.SelectorExpr) bool {
	obj := pkg.ObjectOf(sel.Sel)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Now"
}

// globalRandCall recognizes calls to the shared-source math/rand
// package functions — never the methods of a seeded *rand.Rand, which
// share the same names but resolve to methods, not package functions.
func globalRandCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !globalRandFuncs[sel.Sel.Name] {
		return "", false
	}
	f, ok := pkg.ObjectOf(sel.Sel).(*types.Func)
	if ok && f.Pkg() != nil && f.Pkg().Path() == "math/rand" && f.Type().(*types.Signature).Recv() == nil {
		return f.Name(), true
	}
	return "", false
}

// checkMapRanges reports order-sensitive map iterations inside fd.
func checkMapRanges(pkg *Package, f *File, fd *ast.FuncDecl, report ReportFunc) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if isMapExpr(pkg, rng.X) && hasOrderSensitiveEffect(rng.Body) && !sortedAfter(fd.Body, rng) {
			report(f, rng.Pos(),
				"iterating a map while appending or writing output is order-nondeterministic; range over a sorted key slice (or sort what you collected before using it)")
		}
		return true
	})
}

// sortedAfter reports whether the function calls into package sort
// after the range loop ends — the collect-then-sort idiom, which is the
// sanctioned way to turn a map into a deterministic sequence and must
// not be flagged.
func sortedAfter(body *ast.BlockStmt, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && (x.Name == "sort" || x.Name == "slices") {
				found = true
			}
		}
		return !found
	})
	return found
}

// isMapExpr reports whether e's static type has a map underlying —
// including named map types and cross-package fields.
func isMapExpr(pkg *Package, e ast.Expr) bool {
	t := pkg.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Map)
	return ok
}

// hasOrderSensitiveEffect reports whether body appends to a slice or
// writes output.
func hasOrderSensitiveEffect(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if orderSensitiveCalls[fun.Name] {
				found = true
			}
		case *ast.SelectorExpr:
			if orderSensitiveCalls[fun.Sel.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}
