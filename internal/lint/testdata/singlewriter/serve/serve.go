// Package serve is the fixture stand-in for the serving engine: a
// constructor that starts the batch writer goroutine, an op queue, and
// handlers that must use it.
package serve

import "fix/dynamic"

type op struct {
	n     int
	reply chan int
}

type Server struct {
	r   *dynamic.Reallocator
	ops chan op
}

// New runs single-threaded before the writer starts: its Reallocator
// calls are construction, not concurrency.
func New() *Server {
	s := &Server{r: &dynamic.Reallocator{}, ops: make(chan op, 16)}
	s.r.SetContext(1)
	go s.loop()
	go s.tickerLoop()
	return s
}

// tickerLoop stands in for the snapshot policy goroutine: launched by
// the constructor, but it only submits through the op queue — accepted,
// no finding, and it does not join the writer set.
func (s *Server) tickerLoop() {
	for i := 0; i < 3; i++ {
		s.handleAdd(i)
	}
}

// loop is the batch writer goroutine.
func (s *Server) loop() {
	for o := range s.ops {
		s.process(o)
	}
}

// process runs on the writer goroutine (its only caller is loop).
func (s *Server) process(o op) {
	s.r.SetContext(o.n)
	s.reset()
	o.reply <- s.r.AddCustomer(o.n)
}

// handleAdd enqueues and waits: the sanctioned path, no findings.
func (s *Server) handleAdd(n int) int {
	reply := make(chan int, 1)
	s.ops <- op{n: n, reply: reply}
	return <-reply
}

// handleFast skips the queue and mutates from a request goroutine.
func (s *Server) handleFast(n int) int {
	s.reset()
	return s.r.AddCustomer(n) // want "call to Reallocator method AddCustomer outside the batch writer goroutine"
}

// handleStats only reads, but the Reallocator has no lock: a read
// concurrent with the writer is a data race too.
func (s *Server) handleStats() int { return s.r.Stats() } // want "call to Reallocator method Stats outside the batch writer goroutine"

// refresh has no callers inside the package (wired up elsewhere), so
// it cannot be writer-confined.
func (s *Server) refresh() {
	s.r.Publish() // want "call to Reallocator method Publish outside the batch writer goroutine"
}

// reset is called from both the writer (process) and a request
// handler (handleFast): one non-writer caller loses confinement.
func (s *Server) reset() {
	s.r.SetContext(0) // want "call to Reallocator method SetContext outside the batch writer goroutine"
}
