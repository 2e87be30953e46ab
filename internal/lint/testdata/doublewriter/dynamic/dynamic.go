// Package dynamic is the fixture stand-in for the module's dynamic
// layer (see testdata/singlewriter).
package dynamic

// Reallocator mirrors the real one's shape.
type Reallocator struct {
	ctx   int
	state []int
}

// SetContext writes the receiver.
func (r *Reallocator) SetContext(c int) { r.ctx = c }

// AddCustomer writes the receiver.
func (r *Reallocator) AddCustomer(n int) int {
	r.state = append(r.state, n)
	return len(r.state)
}

// Stats only reads.
func (r *Reallocator) Stats() int { return len(r.state) }
