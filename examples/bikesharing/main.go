// Bikesharing reproduces the paper's §VII-F.2 scenario: a dockless bike
// sharing service periodically gathers dispersed bikes and needs to pick
// k docking stations (with capacities) minimizing the total distance
// from where bikes were left.
//
// The bike distribution follows the paper's pipeline: an hourly bike
// flow field over the street network, its divergence at every node (net
// bikes parked per hour), and the variance of that divergence across the
// day as the docking-demand proxy — here driven by simulated commute
// attractors in a Copenhagen-like network.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"mcfs"
)

func main() {
	prm, err := mcfs.CityPreset("copenhagen", 0.02, 5)
	if err != nil {
		log.Fatal(err)
	}
	g, err := mcfs.GenerateCity(prm)
	if err != nil {
		log.Fatal(err)
	}
	st := mcfs.NetworkStats(g)
	fmt.Printf("copenhagen-like network: %d nodes, %d edges\n", st.Nodes, st.Edges)

	sc, err := mcfs.NewBikesScenario(g, mcfs.BikesConfig{
		Stations: 600, Bikes: 500, MinCap: 3, MaxCap: 12, Attractors: 4, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario: %d candidate docking stations, %d scattered bikes\n\n", len(sc.Stations), len(sc.Bikes))

	sweep := []int{120, 160, 200, 240}
	if os.Getenv("MCFS_EXAMPLE_QUICK") != "" {
		sweep = sweep[:2]
	}
	fmt.Printf("%6s  %12s  %12s  %12s  %12s\n", "k", "WMA", "WMA UF", "Hilbert", "Naive")
	for _, k := range sweep {
		inst := sc.Instance(g, k)
		if ok, _ := inst.Feasible(); !ok {
			fmt.Printf("%6d  infeasible at this budget\n", k)
			continue
		}
		w := mustSolve(inst, mcfs.AlgorithmWMA)
		uf := mustSolve(inst, mcfs.AlgorithmUniformFirst)
		h := mustSolve(inst, mcfs.AlgorithmHilbert)
		nv := mustSolve(inst, mcfs.AlgorithmNaive, mcfs.WithSeed(2))
		fmt.Printf("%6d  %12d  %12d  %12d  %12d\n", k, w.Objective, uf.Objective, h.Objective, nv.Objective)
	}

	// Station utilization under the chosen assignment.
	inst := sc.Instance(g, 160)
	sol := mustSolve(inst, mcfs.AlgorithmWMA)
	load := map[int]int{}
	for _, j := range sol.Assignment {
		load[j]++
	}
	full, total := 0, 0
	for _, j := range sol.Selected {
		if load[j] == inst.Facilities[j].Capacity {
			full++
		}
		total += load[j]
	}
	fmt.Printf("\nk=160: %d stations opened, %d at full capacity, %d bikes docked, objective %d m\n",
		len(sol.Selected), full, total, sol.Objective)

	// Export the solved scenario for mapping tools.
	if f, err := os.Create("bikesharing.geojson"); err == nil {
		if err := mcfs.WriteGeoJSON(f, inst, sol); err == nil {
			fmt.Println("wrote bikesharing.geojson")
		}
		f.Close()
	}
}

func mustSolve(inst *mcfs.Instance, a mcfs.Algorithm, opts ...mcfs.Option) *mcfs.Solution {
	sol, _, err := a.Solve(context.Background(), inst, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := inst.CheckSolution(sol); err != nil {
		log.Fatal(err)
	}
	return sol
}
