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
// Every run loads and analyzes the tree afresh and writes no files.
// Findings print one per line as "file:line: rule: message" on stdout;
// one summary line goes to stderr,
//
//	mcfslint: N finding(s) in F files, R rules, total_ms T load_ms L
//
// whose total_ms CI checks against its wall-clock budget. Exit status
// is 1 when there are findings, 2 on usage, parse, or type errors
// (including a pattern that matches no Go packages), 0 on a clean tree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
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
		seen := make(map[string]bool)
		for _, name := range strings.Split(*rulesFlag, ",") {
			name = strings.TrimSpace(name)
			r, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "mcfslint: unknown rule %q (try -list)\n", name)
				os.Exit(2)
			}
			// A rule run twice would report every finding twice.
			if seen[name] {
				fmt.Fprintf(os.Stderr, "mcfslint: rule %q given twice in -rules\n", name)
				os.Exit(2)
			}
			seen[name] = true
			rules = append(rules, r)
		}
	}

	start := time.Now()
	pkgs, err := lint.Load(*chdir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcfslint:", err)
		os.Exit(2)
	}
	loadElapsed := time.Since(start)
	findings := lint.Run(pkgs, rules)
	if findings == nil {
		findings = []lint.Finding{}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "mcfslint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}

	files := 0
	for _, p := range pkgs {
		files += len(p.Files)
	}
	fmt.Fprintf(os.Stderr, "mcfslint: %d finding(s) in %d files, %d rules, total_ms %d load_ms %d\n",
		len(findings), files, len(rules), time.Since(start).Milliseconds(), loadElapsed.Milliseconds())
	if len(findings) > 0 {
		os.Exit(1)
	}
}
