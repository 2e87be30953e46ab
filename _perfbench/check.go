package main

import (
	"fmt"

	"mcfs"
)

// checkSolve verifies a WMA solution: the instance's own checker accepts
// it (budget, capacities, every customer served, objective recomputed
// from network distances), and its objective is the recorded one.
func checkSolve(inst *mcfs.Instance, sol *mcfs.Solution, want int64) error {
	obj, err := inst.CheckSolution(sol)
	if err != nil {
		return fmt.Errorf("solution: %w", err)
	}
	if obj != want {
		return fmt.Errorf("objective %d, recorded %d", obj, want)
	}
	return nil
}

// checkPublished verifies a served assignment against an independent
// oracle. The published assignment must be feasible for the published
// population and cost what it claims, and since the minimum cost of
// assigning a population to a fixed selection is unique,
// mcfs.AssignToSelection over the same selection must reach exactly the
// published objective.
func checkPublished(inst *mcfs.Instance, pub *mcfs.PublishedAssignment) error {
	now := &mcfs.Instance{G: inst.G, Customers: pub.Nodes, Facilities: inst.Facilities, K: inst.K}
	served := &mcfs.Solution{Selected: pub.Selected, Assignment: pub.Assignment, Objective: pub.Objective}
	if _, err := now.CheckSolution(served); err != nil {
		return fmt.Errorf("published assignment: %w", err)
	}
	best, err := mcfs.AssignToSelection(now, pub.Selected)
	if err != nil {
		return fmt.Errorf("reassigning the published selection: %w", err)
	}
	if best.Objective != pub.Objective {
		return fmt.Errorf("published objective %d, but the optimal assignment to its selection costs %d", pub.Objective, best.Objective)
	}
	return nil
}
