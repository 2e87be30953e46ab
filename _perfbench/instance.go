package main

import (
	"fmt"
	"math/rand"

	"mcfs"
)

// The Table IV configuration at the perf-suite scale, built the way
// internal/bench/perf.go builds it with its default seed 1: the aalborg
// preset at 5% of its Table III size (2548 nodes), m = 512 customers,
// k = 51, capacity c = 20 on every node of the largest component
// (ℓ = n). The base occupancy m/(k·c) is 0.50.
//
// The instance does not depend on the benchmark's --seed. WMA's work on
// this configuration swings from 84 to 406 iterations across instance
// seeds, and from 300 to 406 across orderings of one customer set, so a
// seeded instance would make the spread between runs measure the
// instances rather than the code. The seed drives the serve workloads'
// request streams instead.
const (
	city         = "aalborg"
	cityScale    = 0.05
	instanceSeed = 1
	baseM        = 512
	budgetK      = 51
	capC         = 20
)

// tableIV builds the instance and returns it with the node pool (the
// largest component) that arrivals are drawn from.
func tableIV() (*mcfs.Instance, []int32, error) {
	p, err := mcfs.CityPreset(city, cityScale, instanceSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("city preset: %w", err)
	}
	g, err := mcfs.GenerateCity(p)
	if err != nil {
		return nil, nil, fmt.Errorf("city network: %w", err)
	}
	pool := mcfs.LargestComponent(g)
	rng := rand.New(rand.NewSource(instanceSeed + 11))
	return &mcfs.Instance{
		G:          g,
		Customers:  mcfs.SampleCustomersFrom(pool, baseM, rng),
		Facilities: mcfs.NodesFacilities(pool, mcfs.UniformCapacity(capC)),
		K:          budgetK,
	}, pool, nil
}

// solveObjective is the WMA objective on the instance, as measured when
// this benchmark was defined.
const solveObjective = 85303

// recorded holds, per serve workload and seed, the final published
// objective measured when this benchmark was defined. A run on a
// recorded seed must reproduce it exactly, so a change that is faster
// but serves worse, or differently, fails the run. Other seeds are
// checked by the oracles alone.
var recorded = map[string]map[int64]int64{
	"serve-churn": {
		1: 90742, 2: 89377, 3: 86102, 4: 88344, 5: 89178, 6: 93190,
		7: 91687, 8: 89958, 9: 91287, 10: 88717, 11: 92732, 12: 90162,
		13: 88629, 14: 89984, 15: 86337, 16: 89968, 17: 88258,
		18: 86181, 19: 87219, 20: 89322,
	},
	"serve-tide": {
		1: 89595, 2: 89595, 3: 89595, 4: 89595, 5: 89595, 6: 89595,
		7: 89595, 8: 89595, 9: 89595, 10: 89595, 11: 89595, 12: 89595,
		13: 89595, 14: 89595, 15: 89595, 16: 89595, 17: 89595,
		18: 89595, 19: 89595, 20: 89595,
	},
}
