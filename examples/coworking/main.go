// Coworking reproduces the paper's §VII-F.1 scenario shape: select
// meeting places for coworkers among city venues (cafés/restaurants)
// whose daily operational hours act as nonuniform capacities.
//
// The demo generates a Las-Vegas-like road network, simulates venues
// with Yelp-style occupancies, distributes coworkers by the paper's
// network-Voronoi triangle technique, and compares the Direct and
// Uniform-First WMA strategies against the Hilbert baseline across a
// sweep of budgets k (the shape of Fig. 12a).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"mcfs"
)

func main() {
	prm, err := mcfs.CityPreset("lasvegas", 0.02, 11)
	if err != nil {
		log.Fatal(err)
	}
	g, err := mcfs.GenerateCity(prm)
	if err != nil {
		log.Fatal(err)
	}
	st := mcfs.NetworkStats(g)
	fmt.Printf("las-vegas-like network: %d nodes, %d edges, avg edge %.1f m\n",
		st.Nodes, st.Edges, st.AvgEdgeLength)

	// ~400 venues with operational-hour capacities, 500 coworkers.
	sc, err := mcfs.NewCoworkingScenario(g, mcfs.CoworkingConfig{
		Venues: 400, Customers: 500, MeanHours: 9, Omega: 0.5, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario: %d venues (avg hours as capacity), %d coworkers\n\n", len(sc.Venues), len(sc.Customers))

	sweep := []int{80, 120, 160, 200}
	if os.Getenv("MCFS_EXAMPLE_QUICK") != "" {
		sweep = sweep[:2]
	}
	fmt.Printf("%6s  %12s  %12s  %12s\n", "k", "WMA direct", "WMA UF", "Hilbert")
	for _, k := range sweep {
		inst := sc.Instance(g, k)
		if ok, _ := inst.Feasible(); !ok {
			fmt.Printf("%6d  infeasible at this budget\n", k)
			continue
		}
		direct := mustSolve(inst, mcfs.AlgorithmWMA)
		uf := mustSolve(inst, mcfs.AlgorithmUniformFirst)
		hil := mustSolve(inst, mcfs.AlgorithmHilbert)
		fmt.Printf("%6d  %12d  %12d  %12d\n", k, direct.Objective, uf.Objective, hil.Objective)
	}

	// Per-iteration statistics, as in the paper's Fig. 12b.
	fmt.Println("\nWMA iteration statistics (k = 120):")
	inst := sc.Instance(g, 120)
	_, err = mcfs.Solve(inst, mcfs.WithProgress(func(s mcfs.IterationStats) {
		fmt.Printf("  iter %2d: covered %4d/%d  match %8s  cover %8s  edges %d\n",
			s.Iteration, s.Covered, inst.M(),
			s.MatchTime.Round(time.Microsecond), s.CoverTime.Round(time.Microsecond), s.Edges)
	}))
	if err != nil {
		log.Fatal(err)
	}
}

func mustSolve(inst *mcfs.Instance, a mcfs.Algorithm) *mcfs.Solution {
	sol, _, err := a.Solve(context.Background(), inst)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		log.Fatal(err)
	}
	return sol
}
