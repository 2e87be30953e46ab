// Cityscale demonstrates WMA's scalability trend (the paper's Fig. 10
// shape): on an Aalborg-like road network, the customer and facility
// sets grow with fixed occupancy o = 0.5 (c = 20, k = 0.1·m, F_p = V),
// and WMA's runtime stays aligned with the lightweight Hilbert baseline
// while delivering a better objective.
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
	prm, err := mcfs.CityPreset("aalborg", 0.1, 13)
	if err != nil {
		log.Fatal(err)
	}
	g, err := mcfs.GenerateCity(prm)
	if err != nil {
		log.Fatal(err)
	}
	st := mcfs.NetworkStats(g)
	fmt.Printf("aalborg-like network: %d nodes, %d edges, avg degree %.2f, avg edge %.1f m\n\n",
		st.Nodes, st.Edges, st.AvgDegree, st.AvgEdgeLength)

	sweep := []int{100, 200, 400, 800}
	if os.Getenv("MCFS_EXAMPLE_QUICK") != "" {
		sweep = sweep[:2]
	}
	pool := mcfs.LargestComponent(g)
	fmt.Printf("%8s %6s  %14s %10s  %14s %10s\n", "m", "k", "WMA obj", "WMA time", "Hilbert obj", "Hil time")
	for _, m := range sweep {
		k := m / 10
		rng := rand.New(rand.NewSource(int64(m)))
		inst := &mcfs.Instance{
			G:          g,
			Customers:  mcfs.SampleCustomersFrom(pool, m, rng),
			Facilities: mcfs.NodesFacilities(pool, mcfs.UniformCapacity(20)),
			K:          k,
		}
		wStart := time.Now()
		w, err := mcfs.Solve(inst)
		if err != nil {
			log.Fatal(err)
		}
		wTime := time.Since(wStart)
		hStart := time.Now()
		h, _, err := mcfs.AlgorithmHilbert.Solve(context.Background(), inst)
		if err != nil {
			log.Fatal(err)
		}
		hTime := time.Since(hStart)
		fmt.Printf("%8d %6d  %14d %10s  %14d %10s\n",
			m, k, w.Objective, wTime.Round(time.Millisecond), h.Objective, hTime.Round(time.Millisecond))
	}
}
