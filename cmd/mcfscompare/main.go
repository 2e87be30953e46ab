// Command mcfscompare solves one MCFS instance with every algorithm and
// prints a comparison table, optionally exporting the best solution as
// SVG and/or GeoJSON.
//
//	mcfscompare -in inst.mcfs
//	mcfscompare -in inst.mcfs -algos wma,uf,hilbert -svg out.svg -geojson out.json
//	mcfscompare -in inst.mcfs -exactbudget 30s -improve
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"mcfs"
)

func main() {
	var (
		in          = flag.String("in", "", "instance file (required)")
		algosFlag   = flag.String("algos", "wma,uf,hilbert,naive", "comma-separated algorithms: wma | uf | hilbert | brnn | naive | exact | exhaustive")
		exactBudget = flag.Duration("exactbudget", 15*time.Second, "time budget when 'exact' is included")
		seed        = flag.Int64("seed", 1, "seed for 'naive'")
		improve     = flag.Bool("improve", false, "also run the swap local-search polish on the best solution")
		svgPath     = flag.String("svg", "", "write the best solution as SVG")
		geoPath     = flag.String("geojson", "", "write the best solution as GeoJSON")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "mcfscompare: -in is required")
		flag.Usage()
		os.Exit(2)
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
	fmt.Printf("instance: n=%d edges=%d m=%d l=%d k=%d occupancy=%.2f\n\n",
		inst.G.N(), inst.G.M(), inst.M(), inst.L(), inst.K, inst.Occupancy())

	type result struct {
		name string
		sol  *mcfs.Solution
		dur  time.Duration
		note string
	}
	var results []result
	var best *result
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tobjective\truntime\tnote")
	for _, name := range strings.Split(*algosFlag, ",") {
		name = strings.TrimSpace(name)
		start := time.Now()
		sol, note, err := runAlgo(name, inst, *exactBudget, *seed)
		dur := time.Since(start)
		if err != nil {
			fmt.Fprintf(tw, "%s\t-\t%s\t%v\n", name, dur.Round(time.Millisecond), err)
			continue
		}
		if _, err := inst.CheckSolution(sol); err != nil {
			fatal(fmt.Errorf("%s produced an invalid solution: %w", name, err))
		}
		r := result{name: name, sol: sol, dur: dur, note: note}
		results = append(results, r)
		if best == nil || sol.Objective < best.sol.Objective {
			best = &results[len(results)-1]
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", name, sol.Objective, dur.Round(time.Millisecond), note)
	}
	tw.Flush()
	if best == nil {
		fatal(errors.New("no algorithm produced a solution"))
	}

	if *improve {
		start := time.Now()
		polished, st, err := mcfs.Improve(inst, best.sol)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nswap polish on %s: %d -> %d (%d moves, %d evaluated, %s)\n",
			best.name, best.sol.Objective, polished.Objective,
			st.Accepted, st.Evaluated, time.Since(start).Round(time.Millisecond))
		if polished.Objective < best.sol.Objective {
			best.sol = polished
		}
	}
	fmt.Printf("\nbest: %s with objective %d\n", best.name, best.sol.Objective)

	if *svgPath != "" {
		writeExport(*svgPath, func(w *os.File) error {
			return mcfs.RenderSVG(w, inst, best.sol)
		})
	}
	if *geoPath != "" {
		writeExport(*geoPath, func(w *os.File) error {
			return mcfs.WriteGeoJSON(w, inst, best.sol)
		})
	}
}

func runAlgo(name string, inst *mcfs.Instance, budget time.Duration, seed int64) (*mcfs.Solution, string, error) {
	a, err := mcfs.ParseAlgorithm(name)
	if err != nil {
		return nil, "", err
	}
	opts := []mcfs.Option{mcfs.WithSeed(seed)}
	if a == mcfs.AlgorithmExact {
		opts = append(opts, mcfs.WithTimeBudget(budget))
	}
	return a.Solve(context.Background(), inst, opts...)
}

func writeExport(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	// A failed Close can be the only sign of a short write; the "wrote"
	// confirmation must not print in that case. Close exactly once, on
	// both paths, and report whichever of write/close failed first.
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcfscompare:", err)
	os.Exit(1)
}
