// Command mcfsbench regenerates the paper's tables and figures. Each
// experiment id maps to one paper artifact (F6a–F9b, T3, T4, F10,
// F12a–F13b) or an ablation (AblThreshold, AblDemand, AblTieBreak).
//
//	mcfsbench -list
//	mcfsbench -exp F6a,F6b -scale 1 -csv out.csv
//	mcfsbench -exp all -scale 0.2 -exactbudget 5s -md results.md
//	mcfsbench -exp F6a,F7a -workers 4 -notimes -csv out.csv
//
// Scale 1 runs laptop-sized sweeps; larger scales approach the paper's
// sizes (see EXPERIMENTS.md for the mapping). Experiment cells run on a
// bounded worker pool (-workers, default all CPUs); row output is
// deterministic at any worker count, and -notimes zeroes the wall-clock
// columns so runs are byte-comparable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mcfs/internal/bench"
)

func main() {
	var (
		expFlag     = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		scale       = flag.Float64("scale", 1, "size scale (1 = laptop defaults)")
		exactBudget = flag.Duration("exactbudget", 15*time.Second, "per-point exact-solver budget")
		algoTimeout = flag.Duration("algotimeout", 0, "per-point deadline for the heuristic algorithms; expiry is recorded as a 'timeout' row (0 = unlimited)")
		seed        = flag.Int64("seed", 1, "generation seed")
		skipExact   = flag.Bool("noexact", false, "skip the exact solver")
		skipBRNN    = flag.Bool("nobrnn", false, "skip the BRNN baseline")
		workers     = flag.Int("workers", 0, "max concurrent experiment cells (0 = all CPUs)")
		noTimes     = flag.Bool("notimes", false, "zero all runtime columns (byte-comparable output across runs)")
		csvPath     = flag.String("csv", "", "also write rows as CSV to this file")
		mdPath      = flag.String("md", "", "also write a markdown report to this file")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}

	ids := bench.IDs()
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	// Validate every requested id before running anything, so a typo late
	// in the list doesn't surface only after earlier experiments already
	// burned their runtime.
	for _, id := range ids {
		if !bench.Known(id) {
			fmt.Fprintf(os.Stderr, "mcfsbench: unknown experiment %q (run -list for ids)\n", id)
			os.Exit(2)
		}
	}

	cfg := bench.Config{
		Scale:       *scale,
		ExactBudget: *exactBudget,
		AlgoTimeout: *algoTimeout,
		Seed:        *seed,
		SkipExact:   *skipExact,
		SkipBRNN:    *skipBRNN,
		Workers:     *workers,
	}

	var rows []bench.Row
	for _, id := range ids {
		fmt.Fprintf(os.Stderr, "== %s ==\n", id)
		start := time.Now()
		err := bench.Run(id, cfg, func(r bench.Row) {
			if *noTimes {
				r.Runtime = 0
			}
			rows = append(rows, r)
			printRow(os.Stdout, r)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfsbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "== %s done in %s ==\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, rows); err != nil {
			fmt.Fprintln(os.Stderr, "mcfsbench:", err)
			os.Exit(1)
		}
	}
	if *mdPath != "" {
		if err := writeMarkdown(*mdPath, rows); err != nil {
			fmt.Fprintln(os.Stderr, "mcfsbench:", err)
			os.Exit(1)
		}
	}
}

func printRow(w *os.File, r bench.Row) {
	obj := "-"
	if r.Objective >= 0 {
		obj = strconv.FormatInt(r.Objective, 10)
	}
	note := r.Note
	if note != "" {
		note = "  [" + note + "]"
	}
	algo := string(r.Algo)
	if algo == "" {
		algo = "-"
	}
	fmt.Fprintf(w, "%-6s %-8s %10.6g  %-10s obj=%-12s t=%-12s%s\n",
		r.Exp, r.X, r.XVal, algo, obj, r.Runtime.Round(time.Microsecond), note)
}

func writeCSV(path string, rows []bench.Row) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A failed Close can be the only sign of a short write (full disk);
	// don't let the deferred call swallow it.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return bench.WriteCSV(f, rows)
}

func writeMarkdown(path string, rows []bench.Row) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return bench.WriteMarkdown(f, rows)
}
