// Package serve is the double-writer fixture: besides the goroutine that
// takes the writer from its slot, New starts goroutines that reach the
// Reallocator without taking it — second concurrent owners.
package serve

import "fix/dynamic"

type writer struct {
	r *dynamic.Reallocator
}

type Server struct {
	slot chan *writer
}

// New starts the legitimate writer user and, wrongly, two loops that
// own the Reallocator on their own.
func New() *Server {
	s := &Server{slot: make(chan *writer, 1)}
	r := &dynamic.Reallocator{}
	w := &writer{r: r}
	go s.compactLoop(w) // want "writer w escapes the goroutine holding it: passed to a go or defer statement"
	go s.sweepLoop(r)
	go s.tickerLoop()
	s.slot <- w
	return s
}

// compactLoop is handed the writer New holds, so it calls the
// Reallocator while New, and everyone who later takes the writer from
// the slot, may too; the finding is at the go statement.
func (s *Server) compactLoop(w *writer) {
	for i := 0; i < 3; i++ {
		w.r.SetContext(i)
	}
}

// sweepLoop calls the Reallocator it was given, without the writer.
func (s *Server) sweepLoop(r *dynamic.Reallocator) {
	for i := 0; i < 3; i++ {
		r.SetContext(i) // want "call to Reallocator method SetContext outside the writer"
	}
}

// tickerLoop takes the writer from the slot for each write: accepted.
func (s *Server) tickerLoop() {
	for i := 0; i < 3; i++ {
		w := <-s.slot
		w.r.AddCustomer(i)
		s.slot <- w
	}
}
