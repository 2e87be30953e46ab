package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PublishedImmutability enforces the serving layer's read-path contract
// (DESIGN.md §12): a *dynamic.Published (aliased as
// mcfs.PublishedAssignment) is an immutable snapshot the writer
// goroutine swaps through an atomic.Pointer, and any number of reader
// goroutines resolve queries against it without locks. That only works
// if nobody writes through one — so the rule reports every field
// write, element write, pointer store, or copy() whose destination is
// reachable from a Published value or from anything loaded out of an
// atomic.Pointer (the published-view convention: a Load hands back a
// snapshot someone else may be reading concurrently).
//
// The rule runs on the same flow-sensitive provenance engine as
// shared-instance-mutation, so construction sites stay silent: inside
// dynamic.Publish the view is born from a composite literal, the
// strong update marks it owned, and filling its slices before return
// is not a finding. A value copy of a view owns its scalar fields but
// not the backing arrays (element writes through the copy still fire).
type PublishedImmutability struct{}

// Name implements Rule.
func (PublishedImmutability) Name() string { return "published-immutability" }

// Doc implements Rule.
func (PublishedImmutability) Doc() string {
	return "no writes through a *PublishedAssignment or a value loaded from an atomic.Pointer view"
}

// publishedType reports whether t is (a pointer to) dynamic.Published.
// The root package's PublishedAssignment is a type alias, which
// types.Unalias resolves to the same named type.
func publishedType(t types.Type) bool {
	return isNamedType(t, true, "internal/dynamic", "Published") ||
		isNamedType(t, true, "dynamic", "Published")
}

// isAtomicPointerLoad reports whether call is (*atomic.Pointer[T]).Load.
func isAtomicPointerLoad(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return false
	}
	return isNamedType(pkg.TypeOf(sel.X), true, "sync/atomic", "Pointer")
}

// Check implements Rule.
func (PublishedImmutability) Check(pkg *Package, report ReportFunc) {
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		f := f
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPublishedFunc(pkg, f, fd, report)
		}
	}
}

func checkPublishedFunc(pkg *Package, f *File, fd *ast.FuncDecl, report ReportFunc) {
	defs := collectDefs(pkg, fd.Type, fd.Body)
	var pf *provFlow
	pf = &provFlow{
		pkg:  pkg,
		defs: defs,
		identProv: func(s provState, obj types.Object) provenance {
			// Any Published value the function did not provably build
			// itself — parameters, receivers, captures, globals — is a
			// live snapshot readers may hold.
			if publishedType(obj.Type()) {
				return provShared
			}
			return provUnknown
		},
		selectorProv: func(s provState, e *ast.SelectorExpr) provenance {
			// A Published hanging off an untracked struct (s.view.pub,
			// an op result field) is a snapshot too.
			if publishedType(pkg.TypeOf(e)) && !isPkgName(pkg, e.X) {
				return provShared
			}
			return provUnknown
		},
		callProv: func(s provState, call *ast.CallExpr) provenance {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "new" {
					return provOwned
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Clone" {
					return provOwned
				}
			}
			if isAtomicPointerLoad(pkg, call) {
				return provShared
			}
			if publishedType(firstResultType(pkg.TypeOf(call))) {
				return provShared
			}
			return provUnknown
		},
		onWrite: func(kind writeKind, e ast.Expr, pos token.Pos) {
			switch kind {
			case wkField:
				sel := e.(*ast.SelectorExpr)
				report(f, pos,
					"write to field %s of a published view; views behind the atomic pointer are immutable — build a fresh view and swap it in", sel.Sel.Name)
			case wkElem:
				report(f, pos,
					"element write into a published view's backing array; concurrent readers hold this snapshot — allocate fresh slices for the next view")
			case wkPtr:
				report(f, pos,
					"store through a pointer into a published view; views behind the atomic pointer are immutable")
			case wkCopy:
				report(f, pos,
					"copy() into a published view's backing array; concurrent readers hold this snapshot — allocate fresh slices instead")
			}
		},
		onFuncLit: func(lit *ast.FuncLit, snap provState) {
			pf.analyze(lit.Body, snap)
		},
	}
	pf.analyze(fd.Body, make(provState))
}
