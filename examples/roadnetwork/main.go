// Roadnetwork demonstrates the real-data ingestion path: load a road
// network in the 9th-DIMACS-challenge format (the format of the public
// USA road graphs), place a facility-selection workload on it, solve it,
// audit the solution against an independently computed optimal
// assignment to its selected facilities, and export the result as
// GeoJSON. The audit failing exits non-zero.
//
// The demo writes and reads back a small embedded network so it runs
// offline; point -gr/-co at real DIMACS files to use your own data.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"mcfs"
)

// A tiny embedded "road network": a 6×6 jittered grid in DIMACS format,
// generated once and inlined so the example is self-contained.
func embeddedNetwork() (*mcfs.Graph, error) {
	p, err := mcfs.CityPreset("aalborg", 0.004, 99)
	if err != nil {
		return nil, err
	}
	g, err := mcfs.GenerateCity(p)
	if err != nil {
		return nil, err
	}
	// Round-trip through DIMACS to exercise the reader/writer.
	var gr, co strings.Builder
	if err := mcfs.WriteDIMACSGraph(&gr, &co, g); err != nil {
		return nil, err
	}
	return mcfs.ReadDIMACSGraph(strings.NewReader(gr.String()), strings.NewReader(co.String()), true)
}

func main() {
	grPath := flag.String("gr", "", "DIMACS .gr file (default: embedded demo network)")
	coPath := flag.String("co", "", "DIMACS .co coordinate file")
	flag.Parse()

	var g *mcfs.Graph
	var err error
	if *grPath != "" {
		grF, ferr := os.Open(*grPath)
		if ferr != nil {
			log.Fatal(ferr)
		}
		defer grF.Close()
		var co *os.File
		if *coPath != "" {
			co, ferr = os.Open(*coPath)
			if ferr != nil {
				log.Fatal(ferr)
			}
			defer co.Close()
		}
		if co != nil {
			g, err = mcfs.ReadDIMACSGraph(grF, co, true)
		} else {
			g, err = mcfs.ReadDIMACSGraph(grF, nil, true)
		}
	} else {
		g, err = embeddedNetwork()
	}
	if err != nil {
		log.Fatal(err)
	}
	st := mcfs.NetworkStats(g)
	fmt.Printf("road network: %d nodes, %d edges, avg degree %.2f\n", st.Nodes, st.Edges, st.AvgDegree)

	rng := rand.New(rand.NewSource(17))
	pool := mcfs.LargestComponent(g)
	m := len(pool) / 20
	if m < 4 {
		m = 4
	}
	inst := &mcfs.Instance{
		G:          g,
		Customers:  mcfs.SampleCustomersFrom(pool, m, rng),
		Facilities: mcfs.SampleFacilitiesFrom(pool, len(pool)/5, rng, mcfs.UniformCapacity(6)),
		K:          m/4 + 1,
	}
	sol, err := mcfs.Solve(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solved: m=%d l=%d k=%d objective=%d\n", inst.M(), inst.L(), inst.K, sol.Objective)

	// Audit the solution: the minimum-cost assignment of every customer
	// to the selected facilities, recomputed from scratch, must cost
	// exactly the reported objective.
	audit, err := mcfs.AssignToSelection(inst, sol.Selected)
	if err != nil {
		log.Fatal(err)
	}
	if audit.Objective != sol.Objective {
		log.Fatalf("audit failed: optimal assignment to the selection costs %d, solver reported %d",
			audit.Objective, sol.Objective)
	}
	fmt.Printf("audit: optimal assignment to the %d selected facilities costs %d, as reported\n",
		len(sol.Selected), audit.Objective)

	if f, err := os.Create("roadnetwork.geojson"); err == nil {
		if err := mcfs.WriteGeoJSON(f, inst, sol); err == nil {
			fmt.Println("\nwrote roadnetwork.geojson")
		}
		f.Close()
	}
}
