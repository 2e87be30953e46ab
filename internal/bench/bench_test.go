package bench

import (
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps experiment smoke tests fast. Workers is fixed above
// 1 so that cells run concurrently, and -race sees what they share,
// even where GOMAXPROCS is 1.
func tinyConfig() Config {
	return Config{
		Scale:       0.02,
		ExactBudget: 500 * time.Millisecond,
		Seed:        1,
		SkipBRNN:    false,
		Workers:     4,
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must be registered.
	want := []string{
		"F5", "F6a", "F6b", "F6c", "F6d",
		"F7a", "F7b", "F7c", "F7d",
		"F8a", "F8b", "F8c", "F8d",
		"F9a", "F9b",
		"T3", "T4", "F10",
		"F12a", "F12b", "F13a", "F13b", "Q",
		"AblThreshold", "AblDemand", "AblTieBreak", "AblSwap",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("nope", Config{}, func(Row) {}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestAllExperimentsSmoke runs every registered experiment at miniature
// scale and checks that rows are well-formed and verification never
// fails.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run of all experiments is not -short")
	}
	cfg := tinyConfig()
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			count := 0
			err := Run(id, cfg, func(r Row) {
				count++
				if r.Exp != id {
					t.Errorf("row has exp %q, want %q", r.Exp, id)
				}
				if strings.Contains(r.Note, "VERIFICATION FAILED") {
					t.Errorf("row failed verification: %+v", r)
				}
				if strings.HasPrefix(r.Note, "error:") {
					t.Errorf("row errored: %+v", r)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if count == 0 {
				t.Fatal("experiment emitted no rows")
			}
		})
	}
}

func TestScaleInts(t *testing.T) {
	got := scaleInts([]int{1000, 2000, 4000}, 0.5)
	want := []int{500, 1000, 2000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scaleInts = %v, want %v", got, want)
		}
	}
	// Tiny scales clamp to the minimum and deduplicate.
	got = scaleInts([]int{1000, 1100}, 0.001)
	if len(got) != 1 || got[0] != 8 {
		t.Fatalf("clamped scaleInts = %v", got)
	}
}

func TestKSweepFeasibleAndMonotone(t *testing.T) {
	ks := kSweep(100, 9, 1000)
	if len(ks) == 0 {
		t.Fatal("empty sweep")
	}
	prev := 0
	for _, k := range ks {
		if k*9 < 100 {
			t.Fatalf("k=%d cannot cover 100 customers at mean capacity 9", k)
		}
		if k <= prev {
			t.Fatalf("sweep not strictly increasing: %v", ks)
		}
		prev = k
	}
}
