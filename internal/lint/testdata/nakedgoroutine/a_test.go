package fixture

// Test files are parsed but never type-checked: the rule cannot tell
// what a .Wait() receiver is here, so any Wait counts as a join.
func untypedWait(g gate, work func()) {
	go work()
	g.Wait()
}

// Test files are still scanned.
func leakedInTest(work func()) {
	go work() // want "without a visible join"
}
