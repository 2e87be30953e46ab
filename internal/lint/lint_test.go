package lint

import (
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// loadFixture loads testdata/<name> — one package, or a multi-package
// module with its own go.mod — and relabels each package per dirs
// (fixture-relative dir → virtual module-relative dir), so path-scoped
// rules see the fixture as if it lived inside the module. Load rejects
// a fixture that does not type-check.
func loadFixture(t *testing.T, name string, dirs map[string]string) []*Package {
	t.Helper()
	pkgs, err := Load(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			t.Errorf("fixture %s: package %s carries no type info", name, pkg.Dir)
		}
		virtual, ok := dirs[pkg.Dir]
		if !ok {
			t.Fatalf("fixture %s: unexpected package dir %q", name, pkg.Dir)
		}
		pkg.Dir = virtual
		for _, f := range pkg.Files {
			f.Path = path.Join(virtual, path.Base(f.Path))
		}
	}
	return pkgs
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// wants extracts the `// want "substring"` expectations of a fixture,
// keyed by file path and line.
type wantKey struct {
	path string
	line int
}

func collectWants(t *testing.T, pkg *Package) map[wantKey]string {
	t.Helper()
	wants := make(map[wantKey]string)
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := f.Fset.Position(c.Pos()).Line
				wants[wantKey{f.Path, line}] = m[1]
			}
		}
	}
	return wants
}

// checkFixtures runs the rules over the fixture and matches findings
// against the want comments, both ways. A finding reported twice fails
// even at a want line: one write is one finding.
func checkFixtures(t *testing.T, pkgs []*Package, rules []Rule) {
	t.Helper()
	wants := make(map[wantKey]string)
	for _, pkg := range pkgs {
		for key, want := range collectWants(t, pkg) {
			wants[key] = want
		}
	}
	matched := make(map[wantKey]bool)
	seen := make(map[Finding]bool)
	for _, fd := range Run(pkgs, rules) {
		if seen[fd] {
			t.Errorf("finding reported twice: %s", fd)
			continue
		}
		seen[fd] = true
		key := wantKey{fd.Path, fd.Line}
		want, ok := wants[key]
		if !ok {
			t.Errorf("unexpected finding: %s", fd)
			continue
		}
		if !strings.Contains(fd.Rule+": "+fd.Message, want) {
			t.Errorf("finding at %s:%d does not match want %q: %s", fd.Path, fd.Line, want, fd)
			continue
		}
		matched[key] = true
	}
	for key := range wants {
		if !matched[key] {
			t.Errorf("missing finding at %s:%d (want %q)", key.path, key.line, wants[key])
		}
	}
}

func TestCtxCheckpointRule(t *testing.T) {
	pkgs := loadFixture(t, "ctxcheckpoint", map[string]string{".": "internal/solver"})
	checkFixtures(t, pkgs, []Rule{CtxCheckpoint{}})
}

func TestCtxCheckpointOutOfScope(t *testing.T) {
	pkgs := loadFixture(t, "ctxcheckpoint", map[string]string{".": "internal/render"})
	if got := Run(pkgs, []Rule{CtxCheckpoint{}}); len(got) != 0 {
		t.Errorf("rule fired outside its package scope: %v", got)
	}
}

// apiParityDirs maps the apiparity fixture module (module mcfs, with
// stub internal/baseline and internal/core packages) into the tree.
var apiParityDirs = map[string]string{
	".":                 ".",
	"internal/baseline": "internal/baseline",
	"internal/core":     "internal/core",
}

func TestAPIParityRule(t *testing.T) {
	pkgs := loadFixture(t, "apiparity", apiParityDirs)
	checkFixtures(t, pkgs, []Rule{APIParity{}})
}

func TestAPIParityOutOfScope(t *testing.T) {
	pkgs := loadFixture(t, "apiparity", map[string]string{
		".":                 "internal/solver",
		"internal/baseline": "internal/baseline",
		"internal/core":     "internal/core",
	})
	if got := Run(pkgs, []Rule{APIParity{}}); len(got) != 0 {
		t.Errorf("rule fired outside the root package: %v", got)
	}
}

func TestDeterminismRule(t *testing.T) {
	pkgs := loadFixture(t, "determinism", map[string]string{".": "internal/core"})
	checkFixtures(t, pkgs, []Rule{Determinism{}})
}

func TestDeterminismBenchExemption(t *testing.T) {
	pkgs := loadFixture(t, "determinismbench", map[string]string{".": "internal/bench"})
	if got := Run(pkgs, []Rule{Determinism{}}); len(got) != 0 {
		t.Errorf("time.Now flagged in internal/bench, which is exempt: %v", got)
	}
}

func TestDeterminismObsExemption(t *testing.T) {
	pkgs := loadFixture(t, "determinismobs", map[string]string{".": "internal/obs"})
	if got := Run(pkgs, []Rule{Determinism{}}); len(got) != 0 {
		t.Errorf("time.Now flagged in internal/obs, which is allowlisted: %v", got)
	}
}

func TestDeterminismObsScopeOnly(t *testing.T) {
	// The same fixture relabeled as a solver package must be flagged:
	// the exemption is the package allowlist, not the file contents.
	pkgs := loadFixture(t, "determinismobs", map[string]string{".": "internal/core"})
	got := Run(pkgs, []Rule{Determinism{}})
	if len(got) != 1 || !strings.Contains(got[0].Message, "time.Now") {
		t.Errorf("expected exactly one time.Now finding outside the allowlist, got %v", got)
	}
}

func TestCloseCheckRule(t *testing.T) {
	pkgs := loadFixture(t, "closecheck", map[string]string{".": "cmd/fixture"})
	checkFixtures(t, pkgs, []Rule{CloseCheck{}})
}

func TestCloseCheckOutOfScope(t *testing.T) {
	pkgs := loadFixture(t, "closecheck", map[string]string{".": "internal/data"})
	if got := Run(pkgs, []Rule{CloseCheck{}}); len(got) != 0 {
		t.Errorf("rule fired outside cmd/: %v", got)
	}
}

func TestNakedGoroutineRule(t *testing.T) {
	pkgs := loadFixture(t, "nakedgoroutine", map[string]string{".": "internal/util"})
	checkFixtures(t, pkgs, []Rule{NakedGoroutine{}})
}

func TestNakedGoroutineParallelExemption(t *testing.T) {
	pkgs := loadFixture(t, "parallelexempt", map[string]string{".": "internal/bench"})
	if got := Run(pkgs, []Rule{NakedGoroutine{}}); len(got) != 0 {
		t.Errorf("internal/bench/parallel.go must be exempt: %v", got)
	}
}

func TestCtxPropagationRule(t *testing.T) {
	pkgs := loadFixture(t, "ctxpropagation", map[string]string{".": "internal/solver"})
	checkFixtures(t, pkgs, []Rule{CtxPropagation{}})
}

// The *typed fixtures hold violations that only type information can
// see: a context behind a named type, a map behind a named type from
// another package, a file behind an io.Closer.

func TestCtxCheckpointTyped(t *testing.T) {
	pkgs := loadFixture(t, "ctxcheckpointtyped", map[string]string{".": "internal/solver"})
	checkFixtures(t, pkgs, []Rule{CtxCheckpoint{}})
}

func TestDeterminismTyped(t *testing.T) {
	pkgs := loadFixture(t, "determinismtyped", map[string]string{".": "internal/core"})
	checkFixtures(t, pkgs, []Rule{Determinism{}})
}

func TestCloseCheckTyped(t *testing.T) {
	pkgs := loadFixture(t, "closechecktyped", map[string]string{".": "cmd/fixture"})
	checkFixtures(t, pkgs, []Rule{CloseCheck{}})
}

// TestDirectiveHygiene covers the lint-directive pseudo-rule: stale,
// malformed, and unknown //lint: comments are findings. Expectations
// are inline here because the directive itself occupies the line a want
// comment would use.
func TestDirectiveHygiene(t *testing.T) {
	pkgs := loadFixture(t, "directives", map[string]string{".": "internal/x"})
	got := Run(pkgs, AllRules())
	want := []struct {
		line int
		frag string
	}{
		{7, "unused //lint:ignore"},
		{10, `unknown rule "nosuchrule"`},
		{13, "needs a rule list and a reason"},
		{16, `unknown lint directive "lint:frobnicate"`},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Line != w.line || got[i].Rule != directiveRule || !strings.Contains(got[i].Message, w.frag) {
			t.Errorf("finding %d = %s; want line %d containing %q", i, got[i], w.line, w.frag)
		}
	}
}

// TestDirectiveUnusedSkippedOnPartialRun: a filtered run cannot tell a
// stale directive from one whose rule was not executed, so the unused
// check must stay quiet.
func TestDirectiveUnusedSkippedOnPartialRun(t *testing.T) {
	pkgs := loadFixture(t, "nakedgoroutine", map[string]string{".": "internal/util"})
	for _, fd := range Run(pkgs, []Rule{CtxCheckpoint{}}) {
		if strings.Contains(fd.Message, "unused") {
			t.Errorf("unused-directive finding on a partial run: %s", fd)
		}
	}
}

func TestFindingString(t *testing.T) {
	fd := Finding{Path: "cmd/x/main.go", Line: 12, Col: 3, Rule: "closecheck", Message: "boom"}
	if got, want := fd.String(), "cmd/x/main.go:12: closecheck: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// module caches the one load of the real module that TestModuleClean
// and TestModuleCleanTyped share; a type-checked load of every package
// costs seconds, and the rules only read what it returns.
var module struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadModule returns the real module as Load sees it from the module
// root, loading it on first use.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("the typed load reads GOROOT/src; skip in -short")
	}
	module.once.Do(func() { module.pkgs, module.err = Load("../..") })
	if module.err != nil {
		t.Fatal(module.err)
	}
	if len(module.pkgs) < 15 {
		t.Fatalf("loaded only %d packages from the module root; the loader is missing directories", len(module.pkgs))
	}
	return module.pkgs
}

// TestModuleClean is the gate the CI step relies on: the real module,
// under every rule, has zero findings. Any new violation fails this
// test before it fails CI.
func TestModuleClean(t *testing.T) {
	for _, fd := range Run(loadModule(t), AllRules()) {
		t.Errorf("module not lint-clean: %s", fd)
	}
}

// TestModuleCleanTyped: the real module type-checks — Load fails on any
// type error — and every package with non-test files carries type info,
// so no rule runs blind on production code.
func TestModuleCleanTyped(t *testing.T) {
	for _, pkg := range loadModule(t) {
		hasNonTest := false
		for _, f := range pkg.Files {
			if !f.Test {
				hasNonTest = true
			}
		}
		if hasNonTest && pkg.Types == nil {
			t.Errorf("package %s has non-test files but no type info", pkg.Dir)
		}
	}
}

// TestLoadPattern: non-recursive and prefixed patterns resolve against
// the module root with module-relative paths. The two packages import
// nothing, so the test pays for no type-checking beyond their own.
func TestLoadPattern(t *testing.T) {
	pkgs, err := Load("../..", "./internal/hilbert", "internal/pq/...")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, p := range pkgs {
		dirs = append(dirs, p.Dir)
		for _, f := range p.Files {
			if !strings.HasPrefix(f.Path, p.Dir+"/") {
				t.Errorf("file path %s not module-relative under %s", f.Path, p.Dir)
			}
		}
	}
	if got := strings.Join(dirs, " "); got != "internal/hilbert internal/pq" {
		t.Fatalf("loaded %q, want internal/hilbert and internal/pq", got)
	}
}
