package lint

import (
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load resolves Go-style package patterns against root, parses every
// matched file, and type-checks the packages (typed.go). A pattern is
// either a directory path ("./cmd/mcfscli", ".") or a recursive prefix
// ("./...", "internal/..."). Paths in the returned packages are
// module-relative to root. Directories named testdata or vendor, and
// names starting with "." or "_", are skipped — the same convention the
// go tool uses — which keeps this package's own deliberately-violating
// fixtures out of a module-wide run.
//
// A tree that does not type-check is an error, listing every checker
// diagnostic: the rules read resolved objects and static types, so code
// the checker could not type would be silently invisible to them.
func Load(root string, patterns ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	pkgs, err := parsePatterns(fset, root, patterns...)
	if err != nil {
		return nil, err
	}
	im := &moduleImporter{
		fset:    fset,
		root:    root,
		module:  modulePath(root),
		byDir:   make(map[string]*Package, len(pkgs)),
		std:     importer.ForCompiler(fset, "source", nil),
		checked: make(map[string]*types.Package),
		pending: make(map[string]bool),
	}
	for _, p := range pkgs {
		im.byDir[p.Dir] = p
	}
	for _, p := range pkgs {
		im.typeCheck(p)
	}
	if len(im.errs) > 0 {
		return nil, fmt.Errorf("lint: %d type error(s); the rules cannot see code the checker could not type:\n\t%s",
			len(im.errs), strings.Join(im.errs, "\n\t"))
	}
	return pkgs, nil
}

// parsePatterns resolves the patterns and parses the matched packages
// into fset, sorted by directory.
func parsePatterns(fset *token.FileSet, root string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	byDir := make(map[string]*Package)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		if pat == "" {
			pat = "."
		}
		start := filepath.Join(root, filepath.FromSlash(pat))
		info, err := os.Stat(start)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: %s is not a directory", start)
		}
		if !recursive {
			if err := loadDir(fset, root, start, byDir); err != nil {
				return nil, err
			}
			continue
		}
		err = filepath.WalkDir(start, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != start && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			return loadDir(fset, root, path, byDir)
		})
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
	}

	pkgs := make([]*Package, 0, len(byDir))
	for _, p := range byDir {
		sort.Slice(p.Files, func(i, j int) bool { return p.Files[i].Path < p.Files[j].Path })
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Dir < pkgs[j].Dir })
	if len(pkgs) == 0 {
		// A pattern that resolves to directories but no Go files is a
		// user error (a typo'd path, a tree of testdata): a silent
		// 0-finding exit would report a clean bill of health on code
		// that was never looked at.
		return nil, fmt.Errorf("lint: no Go packages match %s", strings.Join(patterns, " "))
	}
	return pkgs, nil
}

// loadDir parses the .go files directly inside dir into byDir, keyed
// and labelled by the directory's path relative to root.
func loadDir(fset *token.FileSet, root, dir string, byDir map[string]*Package) error {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	rel = filepath.ToSlash(rel)
	if byDir[rel] != nil {
		return nil // already loaded via an overlapping pattern
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	var files []*File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		full := filepath.Join(dir, name)
		astf, err := parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		files = append(files, &File{
			Fset: fset,
			AST:  astf,
			Path: filepath.ToSlash(filepath.Join(rel, name)),
			Test: strings.HasSuffix(name, "_test.go"),
		})
	}
	if len(files) > 0 {
		byDir[rel] = &Package{Dir: rel, Files: files}
	}
	return nil
}
