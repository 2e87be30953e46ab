// Command mcfsperf runs the hot-path perf suite and manages the
// BENCH_*.json trajectory (DESIGN.md §11).
//
// Run mode (default) measures the suite and writes a schema-versioned
// JSON file:
//
//	mcfsperf -out BENCH_$(date -u +%Y%m%dT%H%M%SZ).json
//
// Compare mode diffs two such files and exits 1 when any shared
// benchmark slowed down past the threshold or changed a work counter:
//
//	mcfsperf -compare old.json new.json -threshold 1.15
//
// scripts/bench.sh and scripts/benchcmp.sh wrap the two modes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mcfs/internal/bench"
)

func main() {
	var (
		out       = flag.String("out", "", "output path (default BENCH_<stamp>.json)")
		quick     = flag.Bool("quick", false, "reduced instances for CI smoke runs (not comparable to full runs)")
		seed      = flag.Int64("seed", 1, "instance-generation seed")
		cities    = flag.String("cities", "", "comma-separated city presets (default aalborg,copenhagen; quick: aalborg)")
		compare   = flag.Bool("compare", false, "compare two BENCH_*.json files given as arguments instead of running")
		threshold = flag.Float64("threshold", 1.15, "compare: ns/op growth ratio beyond which a benchmark counts as regressed")
	)
	flag.Parse()
	if err := run(*out, *quick, *seed, *cities, *compare, *threshold, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "mcfsperf:", err)
		os.Exit(1)
	}
}

func run(out string, quick bool, seed int64, cities string, compare bool, threshold float64, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs exactly two files, got %d", len(args))
		}
		old, err := bench.ReadPerfFile(args[0])
		if err != nil {
			return err
		}
		cur, err := bench.ReadPerfFile(args[1])
		if err != nil {
			return err
		}
		deltas, err := bench.ComparePerf(old, cur, threshold)
		if err != nil {
			return err
		}
		report, regressions := bench.FormatPerfDeltas(deltas)
		fmt.Print(report)
		if regressions > 0 {
			return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%% or changed work counters", regressions, (threshold-1)*100)
		}
		fmt.Printf("ok: %d shared benchmark(s) within the %.0f%% threshold, counters unchanged\n", len(deltas), (threshold-1)*100)
		return nil
	}

	cfg := bench.PerfConfig{Quick: quick, Seed: seed}
	if cities != "" {
		cfg.Cities = strings.Split(cities, ",")
	}
	file, err := bench.RunPerf(cfg, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if err != nil {
		return err
	}
	if out == "" {
		out = "BENCH_" + bench.PerfStamp() + ".json"
	}
	if err := bench.WritePerfFile(file, out); err != nil {
		return err
	}
	fmt.Println(out)
	return nil
}
