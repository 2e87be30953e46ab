// Package dynamic is the fixture stand-in for the module's dynamic
// layer: a Reallocator whose methods, reading or writing, belong to the
// goroutine holding the serving layer's writer alone.
package dynamic

// Reallocator mirrors the real one's shape: mutable state behind
// methods.
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

// Publish copies the state out.
func (r *Reallocator) Publish() []int {
	return append([]int(nil), r.state...)
}

// Stats only reads.
func (r *Reallocator) Stats() int { return len(r.state) }
