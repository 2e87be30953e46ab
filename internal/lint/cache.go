package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Result caching.
//
// Type-checking dominates an mcfslint run, and the inputs that can
// change its outcome are few and hashable: the module's Go sources,
// go.mod, the linter binary itself, and the run configuration (rule
// subset, patterns). CacheKey folds all of them into one run-level key;
// CacheGet/CachePut persist the run's findings under that key so an
// unchanged tree replays in milliseconds instead of re-type-checking.
// A tree with type errors never reaches the cache: the command rejects
// it before analyzing anything.
//
// The key deliberately hashes the whole module, not just the files the
// patterns match: typed loading follows in-module imports transitively,
// so a file outside the pattern set can still change the findings
// inside it. Hashing everything over-invalidates (an edit anywhere in
// the module discards a cmd/...-only entry) but can never serve stale
// results — for a cache that guards a linter, sound-and-simple beats
// precise-and-subtle.

// CacheEntry is one persisted run result: everything the command needs
// to reproduce its output without loading or analyzing anything.
type CacheEntry struct {
	// Findings is the run's finding list, in report order. Never nil
	// once stored (an empty run stores an empty slice).
	Findings []Finding `json:"findings"`
	// Files is the number of files the original run loaded, for the
	// summary line.
	Files int `json:"files"`
}

// CacheDir returns the persistent cache directory
// (os.UserCacheDir()/mcfslint), creating it if needed.
func CacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("lint: no user cache dir: %w", err)
	}
	dir := filepath.Join(base, "mcfslint")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	return dir, nil
}

// CacheKey hashes everything that can change a run's outcome: the extra
// strings (caller-supplied configuration — binary hash, toolchain
// version, rule names, patterns), go.mod, and the path and
// content of every Go file in the module, walked with the same skip
// rules Load uses (testdata, vendor, dot- and underscore-prefixed
// names). The walk is deterministic, so identical trees produce
// identical keys on any machine with the same configuration.
func CacheKey(root string, extra ...string) (string, error) {
	h := sha256.New()
	for _, s := range extra {
		fmt.Fprintf(h, "extra %d:%s\n", len(s), s)
	}
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
		fmt.Fprintf(h, "go.mod %x\n", sha256.Sum256(mod))
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		files = append(files, path)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	sort.Strings(files)
	for _, path := range files {
		content, err := os.ReadFile(path)
		if err != nil {
			return "", fmt.Errorf("lint: %w", err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return "", fmt.Errorf("lint: %w", err)
		}
		fmt.Fprintf(h, "file %s %x\n", filepath.ToSlash(rel), sha256.Sum256(content))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CacheGet loads the entry stored under key in dir. A missing,
// unreadable, or unparsable entry is a plain miss — the caller falls
// back to a real run and overwrites it.
func CacheGet(dir, key string) (*CacheEntry, bool) {
	data, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		return nil, false
	}
	var e CacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	if e.Findings == nil {
		e.Findings = []Finding{}
	}
	return &e, true
}

// CachePut stores entry under key in dir, atomically (write to a temp
// file in the same directory, then rename): a concurrent reader sees
// either the old entry or the new one, never a torn write.
func CachePut(dir, key string, entry *CacheEntry) error {
	if entry.Findings == nil {
		entry.Findings = []Finding{}
	}
	data, err := json.Marshal(entry)
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("lint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lint: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, key+".json")); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lint: %w", err)
	}
	return nil
}
