// Package fix exercises the typed sharpening of the determinism rule:
// a map behind a named type still iterates in random order.
package fix

import "sort"

type tally map[string]int

func collect(m tally) []string {
	var out []string
	for k := range m { // want "order-nondeterministic"
		out = append(out, k)
	}
	return out
}

func collectSorted(m tally) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

type counter struct {
	byKey tally
}

func (c counter) keys() []string {
	var out []string
	for k := range c.byKey { // want "order-nondeterministic"
		out = append(out, k)
	}
	return out
}
