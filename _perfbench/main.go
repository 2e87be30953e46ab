// Command perfbench is the repository benchmark. It runs one workload of
// the Multicapacity Facility Selection stack in-process for a wall-clock
// budget, checks every output, and prints the work counters of one unit
// of work and then, as its last line, one JSON result. README.md
// describes the workloads and what each metric should move.
//
// From the repository root:
//
//	bash _perfbench/run.sh --workload serve-tide --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	seed    int64
	seconds time.Duration
	trace   bool // report the per-layer metrics instead of the end-to-end ones
}

// outcome is what a workload run hands back. counters are the work
// counters of one deterministic unit of work (a solve, or a server's
// whole script); runs of one seed must print identical counters.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	counters          map[string]int64
	problems          []string // failed output checks
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"solve-table4": runSolve,
	"serve-churn":  func(c config) (*outcome, error) { return runServe(c, "serve-churn") },
	"serve-tide":   func(c config) (*outcome, error) { return runServe(c, "serve-tide") },
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the inputs are made from")
	seconds := flag.Int("seconds", 10, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced run, which reports the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0 or 1\n", names)
		os.Exit(2)
	}
	out, err := run(config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	counters, err := json.Marshal(out.counters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("counters %s\n%s\n", counters, line)
}
