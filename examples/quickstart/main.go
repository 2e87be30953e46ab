// Quickstart: build a small synthetic network, place customers and
// candidate facilities, and solve the Multicapacity Facility Selection
// problem with the Wide Matching Algorithm, comparing against the
// Hilbert baseline and the exact optimum.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"mcfs"
)

func main() {
	// A clustered synthetic city: 2,000 nodes in 15 clusters.
	g, err := mcfs.GenerateSynthetic(mcfs.SyntheticConfig{
		N: 2000, Clusters: 15, Alpha: 2, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := mcfs.NetworkStats(g)
	fmt.Printf("network: %d nodes, %d edges, avg degree %.2f\n", st.Nodes, st.Edges, st.AvgDegree)

	// 120 customers and 300 candidate facilities (capacity 8 each) in the
	// main component; select k = 20.
	rng := rand.New(rand.NewSource(42))
	pool := mcfs.LargestComponent(g)
	inst := &mcfs.Instance{
		G:          g,
		Customers:  mcfs.SampleCustomersFrom(pool, 120, rng),
		Facilities: mcfs.SampleFacilitiesFrom(pool, 300, rng, mcfs.UniformCapacity(8)),
		K:          20,
	}
	fmt.Printf("instance: m=%d customers, l=%d candidates, k=%d, occupancy %.2f\n\n",
		inst.M(), inst.L(), inst.K, inst.Occupancy())

	solve := func(a mcfs.Algorithm, opts ...mcfs.Option) {
		start := time.Now()
		sol, _, err := a.Solve(context.Background(), inst, opts...)
		if err != nil {
			log.Fatalf("%s: %v", a, err)
		}
		if _, err := inst.CheckSolution(sol); err != nil {
			log.Fatalf("%s produced an invalid solution: %v", a, err)
		}
		fmt.Printf("%-10s objective %8d   runtime %8s\n", a, sol.Objective, time.Since(start).Round(time.Microsecond))
	}

	solve(mcfs.AlgorithmWMA)
	solve(mcfs.AlgorithmHilbert)
	solve(mcfs.AlgorithmNaive, mcfs.WithSeed(1))

	// Render the WMA solution as an SVG map (network grey, customers red,
	// facilities blue, assignments linked).
	wmaSol, err := mcfs.Solve(inst)
	if err == nil {
		if f, ferr := os.Create("quickstart.svg"); ferr == nil {
			if rerr := mcfs.RenderSVG(f, inst, wmaSol); rerr == nil {
				fmt.Println("\nwrote quickstart.svg")
			}
			f.Close()
		}
	}

	// The exact solver proves optimality but does not scale; bound it.
	// MCFS_EXAMPLE_QUICK shrinks the budget for CI smoke runs.
	exactBudget := 20 * time.Second
	if os.Getenv("MCFS_EXAMPLE_QUICK") != "" {
		exactBudget = 500 * time.Millisecond
	}
	start := time.Now()
	res, err := mcfs.SolveExact(inst, mcfs.WithTimeBudget(exactBudget))
	switch {
	case err == nil:
		fmt.Printf("%-10s objective %8d   runtime %8s (proven optimal, %d nodes)\n",
			"exact", res.Solution.Objective, time.Since(start).Round(time.Microsecond), res.Nodes)
	case res != nil:
		fmt.Printf("%-10s objective %8d   runtime %8s (time budget hit — best incumbent)\n",
			"exact", res.Solution.Objective, time.Since(start).Round(time.Microsecond))
	default:
		fmt.Printf("%-10s failed: %v\n", "exact", err)
	}
}
