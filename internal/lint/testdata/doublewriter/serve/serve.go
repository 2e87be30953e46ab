// Package serve is the double-writer fixture: a constructor that
// starts TWO goroutines whose call trees both reach Reallocator
// methods. The second launch is the architecture violation — two
// concurrent owners — and is reported at the go statement.
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

// New starts the batch writer and, wrongly, a second Reallocator loop.
func New() *Server {
	s := &Server{r: &dynamic.Reallocator{}, ops: make(chan op, 16)}
	go s.loop()
	go s.compactLoop() // want "constructor starts a second goroutine (compactLoop) that calls the Reallocator"
	go s.tickerLoop()
	return s
}

// loop is the legitimate batch writer.
func (s *Server) loop() {
	for o := range s.ops {
		s.r.SetContext(o.n)
		o.reply <- s.r.AddCustomer(o.n)
	}
}

// compactLoop reaches a Reallocator call through a helper: a second
// concurrent Reallocator owner.
func (s *Server) compactLoop() {
	for i := 0; i < 3; i++ {
		s.compact(i)
	}
}

func (s *Server) compact(n int) { s.r.SetContext(n) }

// tickerLoop only enqueues: accepted, not a third writer.
func (s *Server) tickerLoop() {
	for i := 0; i < 3; i++ {
		reply := make(chan int, 1)
		s.ops <- op{n: i, reply: reply}
		<-reply
	}
}
