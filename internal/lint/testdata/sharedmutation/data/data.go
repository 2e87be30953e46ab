// Package data is the fixture stand-in for the module's instance layer.
package data

import "fix/graph"

// Facility is a value-typed slice element of Instance.
type Facility struct {
	Node     int64
	Capacity int
}

// Instance mirrors the real instance: a pointer to the graph plus
// slice-backed customer and facility sets.
type Instance struct {
	G          *graph.Graph
	Customers  []int64
	Facilities []Facility
	K          int
}

// Clone returns a deep copy; the rule treats its result as owned.
func (in *Instance) Clone() *Instance {
	return &Instance{
		G:          in.G.Clone(),
		Customers:  append([]int64(nil), in.Customers...),
		Facilities: append([]Facility(nil), in.Facilities...),
		K:          in.K,
	}
}

// Fresh allocates on every return path: its result is owned even
// inside a pool cell.
func Fresh(k int) *Instance {
	return &Instance{K: k, Customers: make([]int64, 4)}
}

// Touch writes through its parameter.
func Touch(in *Instance) {
	in.K++ // want "write to field K of a pool-shared instance"
}
