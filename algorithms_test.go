package mcfs_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mcfs"
)

func TestParseAlgorithmRoundTrip(t *testing.T) {
	algos := mcfs.Algorithms()
	if len(algos) == 0 {
		t.Fatal("empty algorithm catalogue")
	}
	for _, a := range algos {
		got, err := mcfs.ParseAlgorithm(a.String())
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", a, err)
		}
		if got != a {
			t.Fatalf("ParseAlgorithm(%q) = %q", a, got)
		}
		if !a.Valid() {
			t.Fatalf("%q not Valid", a)
		}
	}
}

func TestParseAlgorithmUnknown(t *testing.T) {
	for _, name := range []string{"", "gurobi", "WMA", "wma "} {
		a, err := mcfs.ParseAlgorithm(name)
		if err == nil {
			t.Fatalf("ParseAlgorithm(%q) accepted", name)
		}
		if a != "" {
			t.Fatalf("ParseAlgorithm(%q) returned %q alongside error", name, a)
		}
		// The error must name the catalogue so a CLI user can self-serve.
		if !strings.Contains(err.Error(), "wma") {
			t.Fatalf("error does not list known algorithms: %v", err)
		}
	}
	if mcfs.Algorithm("bogus").Valid() {
		t.Fatal("bogus algorithm reported Valid")
	}
}

func TestAlgorithmSolveUnknown(t *testing.T) {
	inst := buildInstance(t, 40)
	sol, note, err := mcfs.Algorithm("bogus").Solve(context.Background(), inst)
	if err == nil || sol != nil || note != "" {
		t.Fatalf("unknown algorithm: sol=%v note=%q err=%v", sol, note, err)
	}
}

func TestAlgorithmSolveMatchesWrappers(t *testing.T) {
	// The registry is the sole dispatch path: running through
	// Algorithm.Solve and through the named wrapper must be identical.
	inst := buildInstance(t, 41)
	want, err := mcfs.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	got, note, err := mcfs.AlgorithmWMA.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if note != "" {
		t.Fatalf("heuristic note = %q, want empty", note)
	}
	if got.Objective != want.Objective {
		t.Fatalf("registry objective %d != wrapper %d", got.Objective, want.Objective)
	}
}

func TestOptionValidation(t *testing.T) {
	inst := buildInstance(t, 42)
	cases := []struct {
		name string
		opts []mcfs.Option
		want string
	}{
		{"zero budget", []mcfs.Option{mcfs.WithTimeBudget(0)}, "WithTimeBudget"},
		{"negative budget", []mcfs.Option{mcfs.WithTimeBudget(-time.Second)}, "WithTimeBudget"},
	}
	for _, tc := range cases {
		for _, a := range mcfs.Algorithms() {
			sol, _, err := a.Solve(context.Background(), inst, tc.opts...)
			if err == nil || !strings.Contains(err.Error(), tc.want) || sol != nil {
				t.Fatalf("%s via %s: sol = %v, err = %v, want no solution and a mention of %s", tc.name, a, sol, err, tc.want)
			}
		}
		if _, err := mcfs.SolveExact(inst, tc.opts...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s via SolveExact: err = %v, want mention of %s", tc.name, err, tc.want)
		}
	}
	// Multiple bad options: all are reported, not just the first.
	_, err := mcfs.Solve(inst, mcfs.WithTimeBudget(0), mcfs.WithTimeBudget(-time.Second))
	if err == nil || !strings.Contains(err.Error(), "WithTimeBudget(0s)") || !strings.Contains(err.Error(), "WithTimeBudget(-1s)") {
		t.Fatalf("joined validation error incomplete: %v", err)
	}
	// Valid options still pass through every entry point.
	if _, err := mcfs.Solve(inst, mcfs.WithTimeBudget(time.Minute)); err != nil {
		t.Fatalf("valid budget rejected: %v", err)
	}
}

func TestErrTooLargeSentinel(t *testing.T) {
	inst := buildInstance(t, 43) // C(120,12) subsets — far over any cap
	sol, _, err := mcfs.AlgorithmExhaustive.Solve(context.Background(), inst)
	if !errors.Is(err, mcfs.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if sol != nil {
		t.Fatal("oversize enumeration returned a solution")
	}
}

func TestPublicAPISnapshotRestore(t *testing.T) {
	inst := buildInstance(t, 44)
	r, err := mcfs.NewReallocator(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddCustomer(inst.Customers[0]); err != nil {
		t.Fatal(err)
	}
	want, err := r.Objective()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := mcfs.ReadReallocatorSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := mcfs.RestoreReallocator(inst, read, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restored objective %d != %d", got, want)
	}
	// The published view serves the same assignment.
	p, err := restored.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if p.Objective != want || p.Customers() != restored.Customers() {
		t.Fatalf("published view objective=%d customers=%d, want %d/%d",
			p.Objective, p.Customers(), want, restored.Customers())
	}
}
