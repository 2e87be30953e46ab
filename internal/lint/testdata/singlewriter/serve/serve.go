// Package serve is the fixture stand-in for the serving engine: a
// writer that holds the Reallocator, a slot it waits in, and request
// paths that must take it from there before calling the Reallocator.
package serve

import "fix/dynamic"

type op struct {
	n     int
	reply chan int
}

// writer holds the Reallocator; only the goroutine holding the writer
// may call it.
type writer struct {
	r *dynamic.Reallocator
}

type Server struct {
	ops  chan op
	slot chan *writer
	r    *dynamic.Reallocator // want "Reallocator r kept outside the writer"
	w    *writer
}

var spare *dynamic.Reallocator // want "Reallocator spare kept outside the writer"

var parked *writer

// New builds the writer and holds it until it first puts it in the
// slot: its Reallocator calls before that are construction.
func New() *Server {
	s := &Server{ops: make(chan op, 16), slot: make(chan *writer, 1)}
	w := &writer{r: &dynamic.Reallocator{}}
	w.r.SetContext(1)
	s.publish(w)
	s.slot <- w
	w.r.Stats() // want "writer w used where it is not held"
	go s.tickerLoop()
	return s
}

// do queues an op and, whenever it takes the writer, applies the queue
// and puts it back: the sanctioned path, no findings.
func (s *Server) do(n int) int {
	reply := make(chan int, 1)
	s.ops <- op{n: n, reply: reply}
	for {
		select {
		case v := <-reply:
			return v
		case w := <-s.slot:
			s.process(w)
			s.slot <- w
			if n < 0 { // after the put-back, code that never mentions w
				return n
			}
		}
	}
}

// process runs with the writer its caller holds.
func (s *Server) process(w *writer) {
	for {
		select {
		case o := <-s.ops:
			w.r.SetContext(o.n)
			o.reply <- w.r.AddCustomer(o.n)
		default:
			s.publish(w)
			return
		}
	}
}

func (s *Server) publish(w *writer) { w.r.Publish() }

// tickerLoop stands in for the snapshot policy goroutine New starts: it
// submits through do like any request.
func (s *Server) tickerLoop() {
	for i := 0; i < 3; i++ {
		s.do(i)
	}
}

// handleFast skips the writer and mutates from a request goroutine.
func (s *Server) handleFast(n int) int {
	return s.r.AddCustomer(n) // want "call to Reallocator method AddCustomer outside the writer"
}

// handleStats only reads, but the Reallocator has no lock: a read
// concurrent with the holder is a data race too.
func (s *Server) handleStats() int { return spare.Stats() } // want "call to Reallocator method Stats outside the writer"

// handleOwn builds a writer of its own: only New's writer is held
// without being taken from the slot.
func (s *Server) handleOwn() {
	w := &writer{r: &dynamic.Reallocator{}} // want "writer built outside New"
	w.r.Stats()
}

// duplicate puts a second writer over the held one's Reallocator in the
// slot, bound to no variable: two goroutines could then hold a writer.
func (s *Server) duplicate() {
	w := <-s.slot
	s.slot <- &writer{r: w.r} // want "writer built outside New"
	r := w.r
	s.slot <- &writer{r: r} // want "writer built outside New"
	s.slot <- w
}

// lingering keeps using the writer after sending it back.
func (s *Server) lingering() {
	w := <-s.slot
	w.r.SetContext(2)
	s.slot <- w
	w.r.Publish() // want "writer w used where it is not held"
}

// maybe sends the writer back on one path only: a put-back nested in a
// branch ends no span, so the finding is at the send.
func (s *Server) maybe(done bool) {
	w := <-s.slot
	if done {
		s.slot <- w // want "writer w sent back to the slot in a nested block"
	}
	s.publish(w)
}

// twice takes the writer and puts it back twice through one variable:
// each take starts a span of its own.
func (s *Server) twice() {
	w := <-s.slot
	w.r.SetContext(1)
	s.slot <- w
	w = <-s.slot
	w.r.SetContext(2)
	s.slot <- w
}

// takeInInit binds the writer in an if header, which starts no span:
// every use reports.
func (s *Server) takeInInit(ready bool) {
	if w := <-s.slot; ready {
		w.r.Stats() // want "writer w used where it is not held"
		s.slot <- w // want "writer w used where it is not held"
	}
}

// again jumps back over its put-back: source order is then not the
// order statements run, so any goto reports.
func (s *Server) again(n int) {
	w := <-s.slot
retry:
	w.r.SetContext(n)
	s.slot <- w
	if n > 0 {
		n--
		goto retry // want "goto: single-writer reads source order"
	}
}

// park hands the writer to places other goroutines can reach.
func (s *Server) park() {
	w := <-s.slot
	s.w = w    // want "writer w escapes the goroutine holding it: stored or copied"
	parked = w // want "writer w escapes the goroutine holding it: stored or copied"
	hand := make(chan *writer, 1)
	hand <- w       // want "writer w escapes the goroutine holding it: stored or copied"
	go s.process(w) // want "writer w escapes the goroutine holding it: passed to a go or defer statement"
	go func() {
		w.r.Stats() // want "writer w escapes the goroutine holding it: captured by a function literal"
	}()
	defer s.publish(w) // want "writer w escapes the goroutine holding it: passed to a go or defer statement"
	s.slot <- w
}

// release sends back a writer it did not take: its caller still
// believes it holds it.
func (s *Server) release(w *writer) {
	s.slot <- w // want "writer w escapes the goroutine holding it: sent back to the slot by a function that did not take it"
}
