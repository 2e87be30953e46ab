// Package fixture exercises the nakedgoroutine rule.
package fixture

import "sync"

func naked(work func()) {
	go work() // want "without a visible join"
}

func nakedFunc() {
	go func() {}() // want "without a visible join"
}

func waited(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

func channelJoined(work func()) {
	done := make(chan struct{})
	go func() {
		work()
		close(done)
	}()
	<-done
}

func suppressed(work func()) {
	//lint:ignore nakedgoroutine detached-by-design: fixture of the suppression syntax
	go work()
}

// gate has a Wait method but is not a sync.WaitGroup, so calling it is
// no join the rule can vouch for.
type gate struct{ done chan struct{} }

func (g gate) Wait() { <-g.done }

func notAWaitGroup(g gate, work func()) {
	go work() // want "without a visible join"
	g.Wait()
}
