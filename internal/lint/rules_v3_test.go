package lint

import "testing"

// Tests for the serve-era rules introduced with the v3 engine:
// published-immutability, single-writer, and sentinel-http-parity.

var publishedImmutabilityDirs = map[string]string{
	"dynamic": "internal/dynamic",
	"serve":   "internal/serve",
}

func TestPublishedImmutabilityRule(t *testing.T) {
	pkgs := loadFixture(t, "publishedimmutability", publishedImmutabilityDirs)
	checkFixtures(t, pkgs, []Rule{PublishedImmutability{}})
}

var singleWriterDirs = map[string]string{
	"dynamic": "internal/dynamic",
	"serve":   "internal/serve",
}

func TestSingleWriterRule(t *testing.T) {
	pkgs := loadFixture(t, "singlewriter", singleWriterDirs)
	checkFixtures(t, pkgs, []Rule{SingleWriter{}})
}

// TestSingleWriterDoubleWriter: a constructor that launches two
// goroutines whose call trees both reach mutating Reallocator methods
// is two concurrent owners — the second launch is reported. The
// read-only ticker goroutine alongside them stays accepted.
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

// TestSingleWriterNeedsSummaries: without the dynamic package in the
// run there are no summaries to classify mutating methods, and the
// rule must stay silent rather than guess.
func TestSingleWriterNeedsSummaries(t *testing.T) {
	pkgs := loadFixture(t, "singlewriter", singleWriterDirs)
	var serveOnly []*Package
	for _, p := range pkgs {
		if p.Dir == "internal/serve" {
			serveOnly = append(serveOnly, p)
		}
	}
	if len(serveOnly) != 1 {
		t.Fatalf("fixture lacks internal/serve (got %d packages)", len(serveOnly))
	}
	if got := Run(serveOnly, []Rule{SingleWriter{}}); len(got) != 0 {
		t.Errorf("rule guessed without summaries: %v", got)
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
