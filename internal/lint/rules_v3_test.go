package lint

import "testing"

// Tests for the serve-era rules introduced with the v3 engine:
// single-writer and sentinel-http-parity.

var singleWriterDirs = map[string]string{
	"dynamic": "internal/dynamic",
	"serve":   "internal/serve",
}

func TestSingleWriterRule(t *testing.T) {
	pkgs := loadFixture(t, "singlewriter", singleWriterDirs)
	checkFixtures(t, pkgs, []Rule{SingleWriter{}})
}

// TestSingleWriterDoubleWriter: goroutines New starts that reach the
// Reallocator without taking the writer from its slot — one handed the
// writer New holds, one handed the bare Reallocator — are second
// concurrent owners and are reported. The goroutine alongside them that
// takes the writer from the slot for each write stays accepted.
func TestSingleWriterDoubleWriter(t *testing.T) {
	pkgs := loadFixture(t, "doublewriter", singleWriterDirs)
	checkFixtures(t, pkgs, []Rule{SingleWriter{}})
}

// TestSingleWriterOutOfScope: the rule only concerns internal/serve;
// the same code anywhere else is not in its jurisdiction.
func TestSingleWriterOutOfScope(t *testing.T) {
	pkgs := loadFixture(t, "singlewriter", map[string]string{
		"dynamic": "internal/dynamic",
		"serve":   "internal/other",
	})
	if got := Run(pkgs, []Rule{SingleWriter{}}); len(got) != 0 {
		t.Errorf("rule fired outside internal/serve: %v", got)
	}
}

var sentinelParityDirs = map[string]string{
	".":     ".",
	"serve": "internal/serve",
}

func TestSentinelParityRule(t *testing.T) {
	pkgs := loadFixture(t, "sentinelparity", sentinelParityDirs)
	checkFixtures(t, pkgs, []Rule{SentinelParity{}})
}

// TestSentinelParityNeedsBothPackages: with either side of the pairing
// missing from the run the rule cannot judge parity and stays silent.
func TestSentinelParityNeedsBothPackages(t *testing.T) {
	pkgs := loadFixture(t, "sentinelparity", sentinelParityDirs)
	for _, keep := range []string{".", "internal/serve"} {
		var partial []*Package
		for _, p := range pkgs {
			if p.Dir == keep {
				partial = append(partial, p)
			}
		}
		if got := Run(partial, []Rule{SentinelParity{}}); len(got) != 0 {
			t.Errorf("rule fired with only %s loaded: %v", keep, got)
		}
	}
}
