package main

import "math/rand"

// kind is the endpoint a request goes to.
type kind int

const (
	assign kind = iota
	arrive
	depart
)

func (k kind) String() string { return [...]string{"/assign", "/arrivals", "/departures"}[k] }

// request is one step of a serve workload. handles names the customers
// it concerns: the one looked up, the ones leaving, or, for an arrival,
// the handle the server must hand out. Handles are known in advance
// because the Reallocator numbers the initial customers 0..m-1 and each
// later arrival with the next integer, and one closed-loop client whose
// requests all succeed fixes that order.
type request struct {
	kind    kind
	node    int32
	handles []int
}

// churnScript is serve-churn's request stream: n requests, 60% /assign
// of a live customer, 20% /arrivals at a pool node and 20% /departures
// of a live customer, one customer each (the mix of mcfsbench -exp
// serve). The writes come in pairs, one arrival and one departure in
// random order, so every script holds exactly as many of each and the
// population stays within one of m: a departure rebuilds the whole
// matching, so its cost follows the population, and a free random walk
// would make each seed's work differ.
func churnScript(seed int64, n, m int, pool []int32) []request {
	rng := rand.New(rand.NewSource(seed))
	writes := n * 2 / 5
	writes -= writes % 2
	isWrite := make([]bool, n)
	for i := 0; i < writes; i++ {
		isWrite[i] = true
	}
	rng.Shuffle(n, func(i, j int) { isWrite[i], isWrite[j] = isWrite[j], isWrite[i] })
	live := make([]int, m)
	for i := range live {
		live[i] = i
	}
	next := m
	var pair []kind // the rest of the current write pair
	reqs := make([]request, 0, n)
	for _, write := range isWrite {
		if !write {
			reqs = append(reqs, request{kind: assign, handles: []int{live[rng.Intn(len(live))]}})
			continue
		}
		if len(pair) == 0 {
			pair = []kind{arrive, depart}
			if rng.Intn(2) == 0 {
				pair = []kind{depart, arrive}
			}
		}
		k := pair[0]
		pair = pair[1:]
		if k == arrive {
			reqs = append(reqs, request{kind: arrive, node: pool[rng.Intn(len(pool))], handles: []int{next}})
			live = append(live, next)
			next++
			continue
		}
		i := rng.Intn(len(live))
		reqs = append(reqs, request{kind: depart, handles: []int{live[i]}})
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return reqs
}

// tideScript is serve-tide's request stream: rounds of surge
// single-customer /arrivals at pool nodes, each round closed by one bulk
// /departures of exactly that round's arrivals, which restores the
// initial population. The first round's nodes come from firstSeed and
// the rest from seed. The drift re-solve fires in the first round whose
// arrivals push the objective past 1.5 times the base, and its cost
// varies threefold with those arrivals; a first round that is the same
// for every seed, and trips the re-solve, keeps that cost fixed.
func tideScript(firstSeed, seed int64, rounds, surge, m int, pool []int32) []request {
	rng := rand.New(rand.NewSource(firstSeed))
	reqs := make([]request, 0, rounds*(surge+1))
	next := m
	for r := 0; r < rounds; r++ {
		if r == 1 {
			rng = rand.New(rand.NewSource(seed))
		}
		leaving := make([]int, 0, surge)
		for i := 0; i < surge; i++ {
			reqs = append(reqs, request{kind: arrive, node: pool[rng.Intn(len(pool))], handles: []int{next}})
			leaving = append(leaving, next)
			next++
		}
		reqs = append(reqs, request{kind: depart, handles: leaving})
	}
	return reqs
}
