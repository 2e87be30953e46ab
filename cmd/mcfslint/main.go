// Command mcfslint runs the project's static-analysis suite: custom
// rules that machine-check the concurrency, cancellation, and
// determinism invariants the solver stack depends on (see DESIGN.md
// §10 for the rule catalogue and the //lint:ignore suppression syntax).
//
//	mcfslint ./...
//	mcfslint -json ./...          # machine-readable findings
//	mcfslint -rules closecheck ./cmd/...
//	mcfslint -list                # print the rule catalogue
//
// The tree is type-checked (stdlib go/types; in-module imports resolved
// from source, the standard library from GOROOT/src) and rules use
// resolved objects and static types. A tree that does not type-check is
// rejected with its type errors listed: the rules cannot see code the
// checker could not type, so a partial analysis would pass it unseen.
//
// Findings print one per line as "file:line: rule: message" on stdout;
// a summary with the analyzer's own runtime goes to stderr, followed
// by per-rule timing lines and a machine-readable "total_ms N" line
// with -timing (CI records the summary so a slow rule is noticed).
// Exit status is 1 when there are findings, 2 on usage, parse, or type
// errors (including a pattern that matches no Go packages), 0 on a clean
// tree.
//
// Results are cached under os.UserCacheDir()/mcfslint, keyed on the
// binary, the toolchain, the run configuration, and the module's full
// source tree: an unchanged tree replays its findings without
// re-type-checking. -nocache forces a fresh analysis.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mcfs/internal/lint"
)

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		rulesFlag = flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
		chdir     = flag.String("C", ".", "module root to resolve package patterns against")
		list      = flag.Bool("list", false, "list the rules and exit")
		timing    = flag.Bool("timing", false, "print per-rule wall-clock timings to stderr")
		nocache   = flag.Bool("nocache", false, "skip the result cache and re-analyze from scratch")
	)
	flag.Parse()

	if *list {
		for _, r := range lint.AllRules() {
			fmt.Printf("%-16s %s\n", r.Name(), r.Doc())
		}
		return
	}

	rules := lint.AllRules()
	if *rulesFlag != "" {
		byName := make(map[string]lint.Rule)
		for _, r := range rules {
			byName[r.Name()] = r
		}
		rules = rules[:0]
		for _, name := range strings.Split(*rulesFlag, ",") {
			r, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "mcfslint: unknown rule %q (try -list)\n", name)
				os.Exit(2)
			}
			rules = append(rules, r)
		}
	}

	start := time.Now()

	// The result cache replays an unchanged tree without loading or
	// analyzing anything. The key covers every input that can change
	// the outcome: the linter binary, the toolchain, the run
	// configuration, and (inside lint.CacheKey) go.mod plus the whole
	// module's sources. Any failure to set the cache up just disables
	// it — caching is an optimization, never a reason to fail a run.
	var cacheDir, cacheKey string
	cacheStatus := "cache off"
	if !*nocache {
		if dir, err := lint.CacheDir(); err == nil {
			if exe, err := exeHash(); err == nil {
				ruleNames := make([]string, len(rules))
				for i, r := range rules {
					ruleNames[i] = r.Name()
				}
				key, err := lint.CacheKey(*chdir,
					"exe "+exe,
					"go "+runtime.Version(),
					"rules "+strings.Join(ruleNames, ","),
					"patterns "+strings.Join(flag.Args(), " "))
				if err == nil {
					cacheDir, cacheKey = dir, key
					cacheStatus = "cache miss"
				}
			}
		}
	}
	if cacheKey != "" {
		if e, ok := lint.CacheGet(cacheDir, cacheKey); ok {
			emit(e.Findings, *jsonOut)
			fmt.Fprintf(os.Stderr, "mcfslint: %d finding(s) in %d files, %d rules, %s (cache hit)\n",
				len(e.Findings), e.Files, len(rules), time.Since(start).Round(time.Millisecond))
			if *timing {
				fmt.Fprintf(os.Stderr, "mcfslint: total_ms %d\n", time.Since(start).Milliseconds())
			}
			if len(e.Findings) > 0 {
				os.Exit(1)
			}
			return
		}
	}

	pkgs, err := lint.Load(*chdir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcfslint:", err)
		os.Exit(2)
	}
	loadElapsed := time.Since(start)
	findings, ruleTimes := lint.RunTimed(pkgs, rules)
	if findings == nil {
		findings = []lint.Finding{}
	}
	elapsed := time.Since(start)

	emit(findings, *jsonOut)

	files := 0
	for _, p := range pkgs {
		files += len(p.Files)
	}
	if cacheKey != "" {
		// Best effort: a failed store costs the next run a re-analysis,
		// nothing else.
		_ = lint.CachePut(cacheDir, cacheKey, &lint.CacheEntry{Findings: findings, Files: files})
	}
	fmt.Fprintf(os.Stderr, "mcfslint: %d finding(s) in %d files, %d rules, %s (load %s, %s)\n",
		len(findings), files, len(rules), elapsed.Round(time.Millisecond), loadElapsed.Round(time.Millisecond), cacheStatus)
	if *timing {
		for _, rt := range ruleTimes {
			fmt.Fprintf(os.Stderr, "mcfslint: rule %-26s %s\n", rt.Rule, rt.Elapsed.Round(10*time.Microsecond))
		}
		fmt.Fprintf(os.Stderr, "mcfslint: total_ms %d\n", time.Since(start).Milliseconds())
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// emit prints the run's findings, from a live run and a cache replay
// alike.
func emit(findings []lint.Finding, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "mcfslint:", err)
			os.Exit(2)
		}
		return
	}
	for _, f := range findings {
		fmt.Println(f)
	}
}

// exeHash hashes the running linter binary so a rebuilt linter (new or
// changed rules) never replays results computed by an old one.
func exeHash() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(data)), nil
}
