package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SingleWriter enforces the serving engine's concurrency architecture
// (DESIGN.md §12): the Reallocator is owned by exactly one goroutine —
// the batch writer the constructor starts — and every other goroutine
// submits operations through the op queue and waits for a reply.
// Reading that invariant off the code requires knowing which functions
// run on the writer goroutine, so the rule builds the serve package's
// internal call graph, roots the writer set at the constructor (New)
// and the launched goroutine that owns mutating work, closes it over
// "called only from writer functions", and reports any call to a
// mutating Reallocator method from outside that set. The constructor
// may start additional background goroutines — the periodic snapshot
// ticker and the drift healer submit operations through the op queue
// like any request handler — but they are accepted without joining the
// writer set, and a second launched goroutine that reaches mutating
// calls is itself a finding: two concurrent Reallocator owners.
//
// Whether a method mutates comes from the cross-package summaries
// (summary.go): a method provably writing through its receiver —
// directly or via a same-package callee, which is how Publish inherits
// flush's writes — is mutating. Without a summary (the dynamic package
// absent from the run) the rule stays silent rather than guessing.
type SingleWriter struct{}

// Name implements Rule.
func (SingleWriter) Name() string { return "single-writer" }

// Doc implements Rule.
func (SingleWriter) Doc() string {
	return "only the batch writer goroutine may call mutating Reallocator methods; other goroutines go through the op queue"
}

// Check implements Rule for direct single-package use.
func (r SingleWriter) Check(pkg *Package, report ReportFunc) {
	r.CheckModule(newModule([]*Package{pkg}), report)
}

// reallocatorType reports whether t is (a pointer to) the dynamic
// package's Reallocator (the root package's alias resolves to it).
func reallocatorType(t types.Type) bool {
	return isNamedType(t, true, "internal/dynamic", "Reallocator") ||
		isNamedType(t, true, "dynamic", "Reallocator")
}

// CheckModule implements ModuleRule.
func (SingleWriter) CheckModule(m *Module, report ReportFunc) {
	for _, pkg := range m.Pkgs {
		if pkg.Dir != "internal/serve" {
			continue
		}
		checkSingleWriter(m, pkg, report)
	}
}

func checkSingleWriter(m *Module, pkg *Package, report ReportFunc) {
	decls := pkg.funcDecls()

	// The constructor anchors the analysis. Without one the writer
	// goroutine cannot be identified, so the rule stays silent.
	var ctor types.Object
	for obj := range decls {
		if obj.Name() == "New" {
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
				ctor = obj
			}
		}
	}
	if ctor == nil {
		return
	}

	// The goroutines the constructor starts, in launch order. Not every
	// one is a writer: the durability layer's ticker goroutines
	// (snapshot policy, drift healer) submit operations through the op
	// queue like any request handler and never touch the Reallocator —
	// they are accepted, but deliberately NOT writer-privileged, so a
	// mutating call sneaking into one is still a finding.
	type launch struct {
		obj types.Object
		pos token.Pos
	}
	var launches []launch
	ast.Inspect(decls[ctor].decl.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if callee, _ := resolveCallee(pkg, gs.Call); callee != nil {
			if _, local := decls[callee]; local {
				launches = append(launches, launch{callee, gs.Pos()})
			}
		}
		return true
	})

	// In-package call graph, both directions, plus a per-function
	// "directly calls a mutating Reallocator method" flag. Goroutine
	// launches are starts, not calls — the launched function runs
	// concurrently and must not inherit its launcher's confinement
	// through the closure below.
	callers := make(map[types.Object]map[types.Object]bool)
	calls := make(map[types.Object][]types.Object)
	direct := make(map[types.Object]bool)
	for obj, site := range decls {
		obj := obj
		goCalls := make(map[*ast.CallExpr]bool)
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				goCalls[gs.Call] = true
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, recv := resolveCallee(pkg, call)
			if callee == nil {
				return true
			}
			if recv != nil && reallocatorType(pkg.TypeOf(recv)) {
				if fs := m.funcSummaryOf(callee); fs != nil && len(fs.writes) > 0 && fs.writes[0] == escYes {
					direct[obj] = true
				}
			}
			if _, local := decls[callee]; !local || goCalls[call] {
				return true
			}
			calls[obj] = append(calls[obj], callee)
			if callers[callee] == nil {
				callers[callee] = make(map[types.Object]bool)
			}
			callers[callee][obj] = true
			return true
		})
	}

	// reachesMutating: can fn reach a mutating Reallocator call through
	// in-package calls (go launches excluded)?
	var reachesMutating func(fn types.Object, seen map[types.Object]bool) bool
	reachesMutating = func(fn types.Object, seen map[types.Object]bool) bool {
		if direct[fn] {
			return true
		}
		if seen[fn] {
			return false
		}
		seen[fn] = true
		for _, callee := range calls[fn] {
			if reachesMutating(callee, seen) {
				return true
			}
		}
		return false
	}

	// The writer roots: the constructor (runs single-threaded before the
	// loops start) and the launched goroutines that actually own mutating
	// work. More than one mutating root is the architecture violation the
	// rule exists for — two concurrent owners of the Reallocator — and is
	// reported at the launch site.
	writers := map[types.Object]bool{ctor: true}
	mutatingRoots := 0
	for _, l := range launches {
		if !reachesMutating(l.obj, make(map[types.Object]bool)) {
			continue
		}
		writers[l.obj] = true
		mutatingRoots++
		if mutatingRoots > 1 {
			report(decls[ctor].file, l.pos,
				"constructor starts a second goroutine (%s) that mutates the Reallocator; the single-writer architecture allows exactly one batch writer", l.obj.Name())
		}
	}

	// Close the writer set: a function every caller of which is a
	// writer runs on the writer goroutine too.
	for changed := true; changed; {
		changed = false
		for obj := range decls {
			if writers[obj] || len(callers[obj]) == 0 {
				continue
			}
			all := true
			for caller := range callers[obj] {
				if !writers[caller] {
					all = false
					break
				}
			}
			if all {
				writers[obj] = true
				changed = true
			}
		}
	}

	// Report mutating Reallocator calls outside the writer set, in
	// stable position order.
	type siteOrder struct {
		obj  types.Object
		site *declSite
	}
	var ordered []siteOrder
	for obj, site := range decls {
		if !writers[obj] {
			ordered = append(ordered, siteOrder{obj, site})
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].site.decl.Pos() < ordered[j].site.decl.Pos() })
	for _, so := range ordered {
		site := so.site
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, recv := resolveCallee(pkg, call)
			if callee == nil || recv == nil {
				return true
			}
			if !reallocatorType(pkg.TypeOf(recv)) {
				return true
			}
			fs := m.funcSummaryOf(callee)
			if fs == nil || len(fs.writes) == 0 || fs.writes[0] != escYes {
				return true
			}
			report(site.file, call.Pos(),
				"call to mutating Reallocator method %s outside the batch writer goroutine; submit the operation through the op queue instead", callee.Name())
			return true
		})
	}
}
