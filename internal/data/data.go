// Package data defines the MCFS problem-instance model shared by every
// algorithm in the repository: the network, the customers, the candidate
// facilities with capacities, the budget k, solution validation, and
// objective evaluation from first principles (used to cross-check every
// solver's self-reported objective).
package data

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"mcfs/internal/graph"
)

// Facility is a candidate facility location with a capacity constraint.
type Facility struct {
	Node     int32
	Capacity int
}

// Instance is a complete MCFS problem instance (paper §II): select at
// most K facilities from Facilities and assign every customer to exactly
// one selected facility within its capacity, minimizing total network
// distance.
type Instance struct {
	G          *graph.Graph
	Customers  []int32 // customer locations; duplicates allowed (Fig. 8c)
	Facilities []Facility
	K          int
}

// Solution is a feasible (or claimed-feasible) answer: the selected
// facility indexes and, per customer, the index into Facilities of its
// assigned facility. Objective is the total assignment distance.
type Solution struct {
	Selected   []int
	Assignment []int
	Objective  int64
}

// ErrInfeasible reports that no feasible selection/assignment exists for
// the instance (insufficient capacity within some connected component,
// or globally, under budget K).
var ErrInfeasible = errors.New("mcfs: instance is infeasible")

// M returns the number of customers.
func (in *Instance) M() int { return len(in.Customers) }

// L returns the number of candidate facilities.
func (in *Instance) L() int { return len(in.Facilities) }

// TotalCapacity returns the summed capacity of all candidate facilities.
func (in *Instance) TotalCapacity() int {
	total := 0
	for _, f := range in.Facilities {
		total += f.Capacity
	}
	return total
}

// Validate checks structural well-formedness (not feasibility). A nil
// instance is malformed.
func (in *Instance) Validate() error {
	if in == nil {
		return errors.New("mcfs: nil instance")
	}
	if in.G == nil {
		return errors.New("mcfs: instance has nil graph")
	}
	n := int32(in.G.N())
	if in.K < 0 {
		return fmt.Errorf("mcfs: negative budget k=%d", in.K)
	}
	for i, s := range in.Customers {
		if s < 0 || s >= n {
			return fmt.Errorf("mcfs: customer %d at invalid node %d", i, s)
		}
	}
	seen := make(map[int32]bool, len(in.Facilities))
	for j, f := range in.Facilities {
		if f.Node < 0 || f.Node >= n {
			return fmt.Errorf("mcfs: facility %d at invalid node %d", j, f.Node)
		}
		if f.Capacity < 0 {
			return fmt.Errorf("mcfs: facility %d has negative capacity %d", j, f.Capacity)
		}
		if seen[f.Node] {
			return fmt.Errorf("mcfs: duplicate facility at node %d (hard MCFS allows one facility per location)", f.Node)
		}
		seen[f.Node] = true
	}
	return nil
}

// Feasible reports whether a feasible solution exists: within every
// connected component, the customers must be coverable by at most k_g
// component-local facilities, and Σ k_g ≤ K (paper, Theorem 3). The
// returned k_g values (indexed by component id) are the per-component
// minimum facility counts; kg is nil when infeasible.
func (in *Instance) Feasible() (ok bool, kg []int) {
	comp, count := in.G.Components()
	customers := make([]int, count)
	for _, s := range in.Customers {
		customers[comp[s]]++
	}
	caps := make([][]int, count)
	for _, f := range in.Facilities {
		c := comp[f.Node]
		caps[c] = append(caps[c], f.Capacity)
	}
	kg = make([]int, count)
	total := 0
	for g := 0; g < count; g++ {
		if customers[g] == 0 {
			continue
		}
		sort.Sort(sort.Reverse(sort.IntSlice(caps[g])))
		need := customers[g]
		used := 0
		for _, c := range caps[g] {
			if need <= 0 {
				break
			}
			need -= c
			used++
		}
		if need > 0 {
			return false, nil
		}
		kg[g] = used
		total += used
	}
	if total > in.K {
		return false, nil
	}
	return true, kg
}

// CheckSolution verifies a solution against the instance: selection size,
// assignment to selected facilities only, capacity observance, and that
// Objective equals the recomputed true network cost. It returns the
// recomputed objective.
func (in *Instance) CheckSolution(sol *Solution) (int64, error) {
	if sol == nil {
		return 0, errors.New("mcfs: nil solution")
	}
	if len(sol.Selected) > in.K {
		return 0, fmt.Errorf("mcfs: %d facilities selected, budget %d", len(sol.Selected), in.K)
	}
	isSel, err := in.CheckSelection(sol.Selected)
	if err != nil {
		return 0, err
	}
	if len(sol.Assignment) != in.M() {
		return 0, fmt.Errorf("mcfs: assignment covers %d of %d customers", len(sol.Assignment), in.M())
	}
	load := make(map[int]int)
	for i, j := range sol.Assignment {
		if j < 0 || j >= in.L() {
			return 0, fmt.Errorf("mcfs: customer %d assigned to invalid facility index %d", i, j)
		}
		if !isSel[j] {
			return 0, fmt.Errorf("mcfs: customer %d assigned to unselected facility %d", i, j)
		}
		load[j]++
	}
	for j, n := range load {
		if n > in.Facilities[j].Capacity {
			return 0, fmt.Errorf("mcfs: facility %d serves %d customers, capacity %d", j, n, in.Facilities[j].Capacity)
		}
	}
	obj, err := in.EvalObjective(sol.Assignment)
	if err != nil {
		return 0, err
	}
	if obj != sol.Objective {
		return obj, fmt.Errorf("mcfs: reported objective %d != recomputed %d", sol.Objective, obj)
	}
	return obj, nil
}

// CheckSelection verifies that selected holds distinct indexes into
// Facilities, and returns the selection as a mask over them. It does not
// check the budget K.
func (in *Instance) CheckSelection(selected []int) (isSel []bool, err error) {
	isSel = make([]bool, in.L())
	for _, j := range selected {
		if j < 0 || j >= in.L() {
			return nil, fmt.Errorf("mcfs: selected index %d out of range", j)
		}
		if isSel[j] {
			return nil, fmt.Errorf("mcfs: facility %d selected twice", j)
		}
		isSel[j] = true
	}
	return isSel, nil
}

// EvalObjective recomputes the total assignment cost from scratch. The
// cost of a pair is the customer→facility shortest-path distance (the
// paper's d_ij); on undirected networks one Dijkstra per used facility
// suffices, on directed ones a per-customer search preserves direction.
// It errors if any assigned facility is unreachable.
func (in *Instance) EvalObjective(assignment []int) (int64, error) {
	if len(assignment) != in.M() {
		return 0, fmt.Errorf("mcfs: assignment length %d != m=%d", len(assignment), in.M())
	}
	for _, j := range assignment {
		if j < 0 || j >= in.L() {
			return 0, fmt.Errorf("mcfs: invalid facility index %d", j)
		}
	}
	var total int64
	scratch := in.G.NewScratch() // reused across the per-source searches below
	ctx := context.Background()
	if in.G.Directed() {
		target := make([]int32, 1)
		d := make([]int64, 1)
		for i, j := range assignment {
			target[0] = in.Facilities[j].Node
			if err := in.G.DijkstraToTargetsScratchCtx(ctx, in.Customers[i], target, d, scratch); err != nil {
				return 0, err
			}
			if d[0] >= graph.Inf {
				return 0, fmt.Errorf("mcfs: facility node %d unreachable from customer node %d", target[0], in.Customers[i])
			}
			total += d[0]
		}
		return total, nil
	}
	byFac := make(map[int][]int32)
	for i, j := range assignment {
		byFac[j] = append(byFac[j], in.Customers[i])
	}
	var dist []int64
	for j, nodes := range byFac {
		if cap(dist) < len(nodes) {
			dist = make([]int64, len(nodes))
		}
		dist = dist[:len(nodes)]
		if err := in.G.DijkstraToTargetsScratchCtx(ctx, in.Facilities[j].Node, nodes, dist, scratch); err != nil {
			return 0, err
		}
		for idx, s := range nodes {
			if dist[idx] >= graph.Inf {
				return 0, fmt.Errorf("mcfs: customer node %d unreachable from facility node %d", s, in.Facilities[j].Node)
			}
			total += dist[idx]
		}
	}
	return total, nil
}

// FacilityNodes returns the candidate facility node ids in order.
func (in *Instance) FacilityNodes() []int32 {
	nodes := make([]int32, len(in.Facilities))
	for j, f := range in.Facilities {
		nodes[j] = f.Node
	}
	return nodes
}

// CandidateMask returns a []bool over nodes marking candidate facility
// locations, plus a node→facility-index lookup.
func (in *Instance) CandidateMask() (mask []bool, index map[int32]int) {
	mask = make([]bool, in.G.N())
	index = make(map[int32]int, len(in.Facilities))
	for j, f := range in.Facilities {
		mask[f.Node] = true
		index[f.Node] = j
	}
	return mask, index
}

// Occupancy returns the paper's occupancy measure o = m / Σ_{selected
// budget} capacity, approximated as m / (k * avg capacity) for reporting.
func (in *Instance) Occupancy() float64 {
	if in.K == 0 || in.L() == 0 {
		return 0
	}
	avg := float64(in.TotalCapacity()) / float64(in.L())
	if avg == 0 {
		return 0
	}
	return float64(in.M()) / (float64(in.K) * avg)
}
