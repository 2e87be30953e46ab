// Command mcfscli solves an MCFS instance file with one or more of the
// repository's algorithms and prints, for each, the objective, runtime,
// and optionally the full assignment. Given a comma-separated list it
// compares them and names the best, which -assignment, -improve, -svg
// and -geojson then act on.
//
//	mcfscli -algo wma -in inst.mcfs
//	mcfscli -algo exact -timeout 60s -in inst.mcfs
//	mcfscli -algo hilbert -in inst.mcfs -assignment
//	mcfscli -algo wma,uf,hilbert,naive -in inst.mcfs -improve -svg out.svg -geojson out.json
//
// An algorithm in a list that fails has its error printed and the rest
// still run; the command exits 1 only when none produced a solution.
//
// -trace FILE attaches a work recorder to the solves and writes the
// resulting phase-span tree (elapsed time plus solver work-counter
// deltas per phase) to FILE as JSON lines; recording is passive and
// never changes a solution.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mcfs"
	"mcfs/internal/obs"
)

func algoNames() string {
	names := make([]string, 0, len(mcfs.Algorithms()))
	for _, a := range mcfs.Algorithms() {
		names = append(names, a.String())
	}
	return strings.Join(names, " | ")
}

func main() {
	var (
		algo       = flag.String("algo", "wma", "algorithm, or a comma-separated list to compare: "+algoNames())
		in         = flag.String("in", "", "instance file (required)")
		kOverride  = flag.Int("k", 0, "override the instance's facility budget")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget per algorithm: branch-and-bound cutoff for exact, hard deadline for every other algorithm")
		seed       = flag.Int64("seed", 1, "seed for naive")
		assignment = flag.Bool("assignment", false, "print the best solution's per-customer assignment")
		verify     = flag.Bool("verify", true, "re-verify each solution from scratch")
		trace      = flag.String("trace", "", "write the solves' phase-span tree to this file as JSON lines")
		improve    = flag.Bool("improve", false, "run the swap local-search polish on the best solution")
		svgPath    = flag.String("svg", "", "write the best solution as SVG")
		geoPath    = flag.String("geojson", "", "write the best solution as GeoJSON")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "mcfscli: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	var algos []mcfs.Algorithm
	for _, name := range strings.Split(*algo, ",") {
		a, err := mcfs.ParseAlgorithm(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		algos = append(algos, a)
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	inst, err := mcfs.ReadInstance(f)
	//lint:ignore closecheck read path: the file is only read, and a parse error dominates any close error
	f.Close()
	if err != nil {
		fatal(err)
	}
	if *kOverride > 0 {
		inst.K = *kOverride
	}

	ctx := context.Background()
	var rec *obs.Recorder
	if *trace != "" {
		rec = obs.New()
		ctx = obs.WithRecorder(ctx, rec)
	}
	opts := []mcfs.Option{mcfs.WithSeed(*seed)}
	if *timeout > 0 {
		opts = append(opts, mcfs.WithTimeBudget(*timeout))
	}

	var best *mcfs.Solution
	var bestAlgo mcfs.Algorithm
	for _, a := range algos {
		sol, note, elapsed, err := solve(ctx, a, inst, opts, *verify)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfscli: %s: %v\n", a, err)
			continue
		}
		if best != nil {
			fmt.Println()
		}
		fmt.Printf("algorithm   %s\n", a)
		fmt.Printf("instance    n=%d edges=%d m=%d l=%d k=%d\n",
			inst.G.N(), inst.G.M(), inst.M(), inst.L(), inst.K)
		fmt.Printf("objective   %d\n", sol.Objective)
		fmt.Printf("facilities  %d selected\n", len(sol.Selected))
		fmt.Printf("runtime     %s\n", elapsed)
		if note != "" {
			fmt.Printf("note        %s\n", note)
		}
		if best == nil || sol.Objective < best.Objective {
			best, bestAlgo = sol, a
		}
	}
	if rec != nil {
		if err := writeFile(*trace, func(w io.Writer) error { return obs.WriteSpansJSONL(w, rec.Spans()) }); err != nil {
			fatal(fmt.Errorf("writing trace: %w", err))
		}
	}
	if best == nil {
		os.Exit(1)
	}

	if *improve {
		start := time.Now()
		polished, st, err := mcfs.Improve(inst, best)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nswap polish on %s: %d -> %d (%d moves, %d evaluated, %s)\n",
			bestAlgo, best.Objective, polished.Objective,
			st.Accepted, st.Evaluated, time.Since(start).Round(time.Millisecond))
		best = polished
	}
	if len(algos) > 1 {
		fmt.Printf("\nbest: %s with objective %d\n", bestAlgo, best.Objective)
	}
	if *assignment {
		for i, j := range best.Assignment {
			fmt.Printf("customer %d @node %d -> facility %d @node %d\n",
				i, inst.Customers[i], j, inst.Facilities[j].Node)
		}
	}
	for _, export := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*svgPath, func(w io.Writer) error { return mcfs.RenderSVG(w, inst, best) }},
		{*geoPath, func(w io.Writer) error { return mcfs.WriteGeoJSON(w, inst, best) }},
	} {
		if export.path == "" {
			continue
		}
		if err := writeFile(export.path, export.write); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", export.path)
	}
}

// solve runs one algorithm, times it and verifies its solution. A
// solver that holds an incumbent may return it beside an error; that
// error is a warning and the incumbent is reported.
func solve(ctx context.Context, a mcfs.Algorithm, inst *mcfs.Instance, opts []mcfs.Option, verify bool) (*mcfs.Solution, string, time.Duration, error) {
	start := time.Now()
	sol, note, err := a.Solve(ctx, inst, opts...)
	elapsed := time.Since(start)
	if err != nil && sol == nil {
		return nil, "", 0, err
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcfscli: warning: %s: %v (reporting best-so-far)\n", a, err)
	}
	if verify {
		if _, err := inst.CheckSolution(sol); err != nil {
			return nil, "", 0, fmt.Errorf("solution failed verification: %w", err)
		}
	}
	return sol, note, elapsed, nil
}

// writeFile creates path and fills it with write. A failed Close can be
// the only sign of a short write, so the file is closed exactly once and
// whichever of write and close failed first is returned.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcfscli:", err)
	os.Exit(1)
}
