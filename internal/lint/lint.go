// Package lint is the engine behind mcfslint, the project's static
// analysis suite. It machine-checks the invariants the parallel bench
// harness and the cooperative-cancellation layer rely on — audited
// immutability, context checkpoints in unbounded solver loops,
// byte-identical deterministic output — which are otherwise enforced
// only by convention and code review.
//
// The engine is deliberately stdlib-only (go/parser, go/ast, go/token,
// go/types, go/importer; no x/tools dependency, matching the module's
// stdlib-only rule). Load parses and type-checks the tree — in-module
// imports resolved from source, stdlib from GOROOT/src — and rejects a
// tree that does not type-check; the rules then judge resolved objects
// and static types rather than spelling. Test files are parsed but not
// type-checked (see typed.go). Deliberate exceptions are annotated in
// the tree with
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// placed on the offending line or the line directly above it. The
// reason is mandatory, and a directive that suppresses nothing is
// itself reported (rule "lint-directive") so annotations cannot go
// stale silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic, rendered as "path:line: rule: message".
type Finding struct {
	Path    string `json:"path"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Path, f.Line, f.Rule, f.Message)
}

// File is one parsed source file.
type File struct {
	Fset *token.FileSet
	AST  *ast.File
	Path string // module-relative, slash-separated
	Test bool   // *_test.go
}

// Package groups the files of one directory. Dir is the directory's
// module-relative slash path ("." for the module root); rules use it to
// decide whether they apply. Types/Info hold the checker's view of the
// non-test files; both are nil for a test-only directory such as cmd/.
type Package struct {
	Dir   string
	Files []*File

	Types *types.Package
	Info  *types.Info
}

// ReportFunc records a finding at pos in f; the engine fills in the
// rule name and resolves the position.
type ReportFunc func(f *File, pos token.Pos, format string, args ...any)

// Rule is one analysis pass. Run calls Check exactly once per run with
// the whole module — every loaded package plus the cross-package
// summaries — and a rule scoped to some packages walks m.Pkgs and skips
// the rest. Check must be deterministic: findings are emitted in a
// sorted order, but rules should not depend on iteration order
// internally either.
type Rule interface {
	Name() string
	Doc() string
	Check(m *Module, report ReportFunc)
}

// AllRules returns the full rule set in stable order.
func AllRules() []Rule {
	return []Rule{
		CtxCheckpoint{},
		APIParity{},
		Determinism{},
		CloseCheck{},
		NakedGoroutine{},
		SharedMutation{},
		CtxPropagation{},
		PublishedImmutability{},
		SingleWriter{},
		SentinelParity{},
	}
}

// directiveRule is the pseudo-rule under which malformed or unused
// //lint:ignore directives are reported. It cannot be suppressed.
const directiveRule = "lint-directive"

// Run executes the rules over the packages and returns the surviving
// findings sorted by position. Suppression via //lint:ignore is applied
// here; unused-directive hygiene findings are only emitted when the
// full rule set runs (a filtered run cannot tell a stale directive from
// one whose rule simply was not executed).
func Run(pkgs []*Package, rules []Rule) []Finding {
	var raw []Finding
	mod := newModule(pkgs)
	for _, rule := range rules {
		name := rule.Name()
		report := func(f *File, pos token.Pos, format string, args ...any) {
			p := f.Fset.Position(pos)
			raw = append(raw, Finding{
				Path: f.Path, Line: p.Line, Col: p.Column,
				Rule: name, Message: fmt.Sprintf(format, args...),
			})
		}
		rule.Check(mod, report)
	}

	known := make(map[string]bool)
	for _, r := range AllRules() {
		known[r.Name()] = true
	}
	ran := make(map[string]bool)
	for _, r := range rules {
		ran[r.Name()] = true
	}
	complete := true
	for name := range known {
		if !ran[name] {
			complete = false
		}
	}

	var directives []*ignoreDirective
	var findings []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ds, bad := collectDirectives(f, known)
			directives = append(directives, ds...)
			findings = append(findings, bad...)
		}
	}

	for _, fd := range raw {
		suppressed := false
		for _, d := range directives {
			if d.path == fd.Path && d.rules[fd.Rule] && (d.line == fd.Line || d.line == fd.Line-1) {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			findings = append(findings, fd)
		}
	}
	if complete {
		for _, d := range directives {
			if !d.used {
				findings = append(findings, Finding{
					Path: d.path, Line: d.line, Col: d.col, Rule: directiveRule,
					Message: "unused //lint:ignore directive (nothing to suppress here; delete it)",
				})
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return findings
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	path  string
	line  int
	col   int
	rules map[string]bool
	used  bool
}

// collectDirectives parses every //lint: comment of f. Malformed
// directives (unknown verb, missing rule list or reason, unknown rule
// name) are returned as findings rather than silently ignored: a typo
// in a suppression must not reopen the hole it papers over.
func collectDirectives(f *File, known map[string]bool) ([]*ignoreDirective, []Finding) {
	var ds []*ignoreDirective
	var bad []Finding
	report := func(pos token.Position, msg string) {
		bad = append(bad, Finding{
			Path: f.Path, Line: pos.Line, Col: pos.Column,
			Rule: directiveRule, Message: msg,
		})
	}
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//lint:") {
				continue
			}
			pos := f.Fset.Position(c.Pos())
			rest := strings.TrimPrefix(c.Text, "//lint:")
			verb := rest
			if i := strings.IndexAny(verb, " \t"); i >= 0 {
				verb = verb[:i]
			}
			if verb != "ignore" {
				report(pos, fmt.Sprintf("unknown lint directive %q (only //lint:ignore is supported)", "lint:"+verb))
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(rest, "ignore"))
			if len(fields) < 2 {
				report(pos, "//lint:ignore needs a rule list and a reason: //lint:ignore <rule>[,<rule>] <reason>")
				continue
			}
			rules := make(map[string]bool)
			ok := true
			for _, r := range strings.Split(fields[0], ",") {
				if !known[r] {
					report(pos, fmt.Sprintf("//lint:ignore names unknown rule %q", r))
					ok = false
					break
				}
				rules[r] = true
			}
			if !ok {
				continue
			}
			ds = append(ds, &ignoreDirective{path: f.Path, line: pos.Line, col: pos.Column, rules: rules})
		}
	}
	return ds, bad
}
