// Perf suite: the hot-path benchmarks behind scripts/bench.sh and the
// committed BENCH_*.json trajectory (DESIGN.md §11).
//
// Unlike the experiment runners (which reproduce the paper's figures),
// the perf suite exists to make "faster" a checkable claim over time: it
// measures the SSPA inner loop — resumable Dijkstra, the reduced-cost
// FindPair search — the optimal assignment to a fixed selection, and
// the end-to-end WMA solve on the city presets, and emits a
// schema-versioned JSON file that ComparePerf can diff against any
// earlier run. The bench package is the one layer allowed to read the
// wall clock (the mcfslint determinism rule), which is why the suite
// lives here and cmd/mcfsperf stays a thin shell.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"mcfs"
	"mcfs/internal/bipartite"
	"mcfs/internal/graph"
	"mcfs/internal/obs"
)

// PerfSchema identifies the BENCH_*.json layout. Bump it only for
// incompatible changes; ComparePerf refuses to diff across schemas.
// Version 2 added the optional per-benchmark work counters; v1 files
// are still readable (the addition is forward-compatible) so the
// committed baseline trajectory stays diffable.
const PerfSchema = "mcfs-bench/2"

// perfSchemaV1 is the pre-counter layout, accepted on read.
const perfSchemaV1 = "mcfs-bench/1"

// PerfConfig tunes a perf-suite run.
type PerfConfig struct {
	// Cities selects the presets to measure; nil means aalborg and
	// copenhagen (quick mode: aalborg only).
	Cities []string
	// Quick shrinks the instances for a CI smoke run. Quick numbers are
	// comparable only to other quick numbers; the file records the mode.
	Quick bool
	// Seed drives instance generation (same default as Config.Seed).
	Seed int64
}

// PerfBenchmark is one measured benchmark in a BENCH_*.json file.
// Counters (schema v2+) come from a separate single probe run with an
// obs recorder attached — never from the timed iterations, which run
// recorder-free so ns/op keeps measuring the undisturbed hot path.
type PerfBenchmark struct {
	Name        string           `json:"name"`
	Iterations  int              `json:"n"`
	NsPerOp     float64          `json:"ns_per_op"`
	BytesPerOp  int64            `json:"bytes_per_op"`
	AllocsPerOp int64            `json:"allocs_per_op"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// PerfFile is the schema-versioned payload of a BENCH_*.json file.
type PerfFile struct {
	Schema     string          `json:"schema"`
	Created    string          `json:"created"` // RFC3339 UTC
	GoVersion  string          `json:"go"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	NumCPU     int             `json:"num_cpu"`
	Quick      bool            `json:"quick"`
	Seed       int64           `json:"seed"`
	Cities     []string        `json:"cities"`
	Benchmarks []PerfBenchmark `json:"benchmarks"`
}

// PerfStamp returns a UTC timestamp suitable for BENCH_<stamp>.json
// filenames.
func PerfStamp() string { return time.Now().UTC().Format("20060102T150405Z") }

// perfCase is one registered benchmark: op performs the measured
// operation once on its i-th rotating input. The timed loop runs it
// recorder-free under context.Background(); when probe is set, one more
// run at i = 0 under a recorder-carrying context collects the row's
// work counters (probe is unset for operations that record none).
type perfCase struct {
	name  string
	op    func(ctx context.Context, i int) error
	probe bool
}

// RunPerf executes the suite and returns the populated file. Progress
// lines go through logf (pass nil to silence them).
func RunPerf(cfg PerfConfig, logf func(format string, args ...any)) (*PerfFile, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cities := cfg.Cities
	if len(cities) == 0 {
		if cfg.Quick {
			cities = []string{"aalborg"}
		} else {
			cities = []string{"aalborg", "copenhagen"}
		}
	}
	out := &PerfFile{
		Schema:    PerfSchema,
		Created:   time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Quick:     cfg.Quick,
		Seed:      cfg.Seed,
		Cities:    cities,
	}
	for _, city := range cities {
		cases, err := cityPerfCases(city, cfg)
		if err != nil {
			return nil, err
		}
		for _, c := range cases {
			logf("bench: %s", c.name)
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := c.op(context.Background(), i); err != nil {
						b.Fatalf("%s: %v", c.name, err)
					}
				}
			})
			pb := PerfBenchmark{
				Name:        c.name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if c.probe {
				rec := obs.New()
				if err := c.op(obs.WithRecorder(context.Background(), rec), 0); err != nil {
					return nil, fmt.Errorf("bench: counter probe for %s: %w", c.name, err)
				}
				pb.Counters = nonzeroCounters(rec)
			}
			out.Benchmarks = append(out.Benchmarks, pb)
			logf("bench: %s\t%d\t%.0f ns/op\t%d B/op\t%d allocs/op",
				c.name, r.N, out.Benchmarks[len(out.Benchmarks)-1].NsPerOp,
				r.AllocedBytesPerOp(), r.AllocsPerOp())
		}
	}
	return out, nil
}

// cityPerfCases builds the per-city benchmark bodies over one shared
// instance (read-only across cases, like the parallel harness audits).
func cityPerfCases(city string, cfg PerfConfig) ([]perfCase, error) {
	bcfg := Config{Scale: 1, Seed: cfg.Seed}
	m, k, c := 512, 51, 20
	if cfg.Quick {
		bcfg.Scale = 0.2
		m, k = 128, 13
	}
	inst, err := cityInstance(city, bcfg.normalized(), m, k, c)
	if err != nil {
		return nil, fmt.Errorf("bench: perf instance for %s: %w", city, err)
	}
	g := inst.G
	name := func(op string) string { return op + "/" + city }

	// Multi-source set: up to 32 facility nodes spread over the candidate
	// list; NN/Within sources rotate over the customers.
	var sources []int32
	if l := len(inst.Facilities); l > 0 {
		stride := l / 32
		if stride < 1 {
			stride = 1
		}
		for j := 0; j < l && len(sources) < 32; j += stride {
			sources = append(sources, inst.Facilities[j].Node)
		}
	}
	radius := int64(g.AvgEdgeWeight() * 64)
	if radius < 1 {
		radius = 1
	}
	mask, _ := inst.CandidateMask()

	customer := func(i int) int32 { return inst.Customers[i%len(inst.Customers)] }
	sc := g.NewScratch()
	// The AssignToSelection row re-assigns every customer to WMA's
	// selection, solved once here, outside the timed loop.
	base, _, err := mcfs.AlgorithmWMA.Solve(context.Background(), inst, mcfs.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("bench: perf selection for %s: %w", city, err)
	}
	cases := []perfCase{
		{name("Dijkstra"), func(ctx context.Context, i int) error {
			_, err := g.DijkstraCtx(ctx, customer(i))
			return err
		}, true},
		{name("MultiSourceDijkstra"), func(ctx context.Context, _ int) error {
			_, _, err := g.MultiSourceDijkstraCtx(ctx, sources)
			return err
		}, true},
		// One scratch serves every run; each search resets it.
		{name("DijkstraWithinScratch"), func(ctx context.Context, i int) error {
			return g.DijkstraWithinScratchCtx(ctx, customer(i), radius, sc)
		}, true},
		// NNSearcher records no obs counters, so the row has no probe.
		{name("NNSearcher"), func(ctx context.Context, i int) error {
			s := graph.NewNNSearcherCtx(ctx, g, customer(i), mask)
			for drained := 0; drained < 32; drained++ {
				if _, _, ok := s.Next(); !ok {
					break
				}
			}
			return s.Err()
		}, false},
		{name("FindPair"), func(ctx context.Context, _ int) error {
			mt := bipartite.New(g, inst.Customers, inst.Facilities)
			for cust := range inst.Customers {
				ok, err := mt.FindPairCtx(ctx, cust)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("FindPair(%d) found no augmenting path", cust)
				}
			}
			return nil
		}, true},
		{name("AssignToSelection"), func(ctx context.Context, _ int) error {
			sol, err := mcfs.AssignToSelectionCtx(ctx, inst, base.Selected)
			if err == nil && sol.Objective != base.Objective {
				err = fmt.Errorf("objective %d over WMA's selection, WMA %d", sol.Objective, base.Objective)
			}
			return err
		}, true},
		{name("WMA"), func(ctx context.Context, _ int) error {
			_, _, err := mcfs.AlgorithmWMA.Solve(ctx, inst, mcfs.WithSeed(cfg.Seed))
			return err
		}, true},
	}
	return cases, nil
}

// WritePerfFile marshals the file (stable indented JSON) to path.
func WritePerfFile(f *PerfFile, path string) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadPerfFile loads and schema-checks a BENCH_*.json file.
func ReadPerfFile(path string) (*PerfFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f PerfFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if f.Schema != PerfSchema && f.Schema != perfSchemaV1 {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q (or the older %q)",
			path, f.Schema, PerfSchema, perfSchemaV1)
	}
	return &f, nil
}

// PerfDelta is one benchmark's old-vs-new comparison.
type PerfDelta struct {
	Name       string
	OldNs      float64
	NewNs      float64
	Ratio      float64 // new/old wall time; > 1 is slower
	OldAllocs  int64
	NewAllocs  int64
	Regression bool // ns/op grew past the threshold
	// CounterChanges lists the work counters that differ, by name; only
	// rows where both sides carry counters are compared.
	CounterChanges []CounterChange
	// Missing marks an old row that the new file lacks although it
	// measured the row's city; such a delta carries only Name, OldNs
	// and OldAllocs besides the flag.
	Missing bool
	// ProbeLost marks a row whose old side carries counters and whose
	// new side carries none.
	ProbeLost bool
}

// CounterChange is one work counter whose value differs between two
// runs of a benchmark. An absent counter counts as zero.
type CounterChange struct {
	Name     string
	Old, New int64
}

// ComparePerf diffs two perf files. A benchmark regresses when its
// ns/op grew by more than threshold (e.g. 1.15 = +15%). Work counters
// are deterministic, so they are compared exactly: when both rows carry
// counters, every differing counter is listed in CounterChanges, and a
// row that carried counters in the old file but none in the new one is
// ProbeLost. A row only the new file has is skipped (the suite may gain
// benchmarks between PRs); a row only the old file has is Missing when
// the new file measured its city, and skipped otherwise. Comparing
// quick and non-quick files is an error — the instance sizes differ.
func ComparePerf(old, new *PerfFile, threshold float64) ([]PerfDelta, error) {
	if threshold <= 1 {
		return nil, fmt.Errorf("bench: compare threshold %v must exceed 1", threshold)
	}
	if old.Quick != new.Quick {
		return nil, fmt.Errorf("bench: cannot compare quick=%v against quick=%v files", old.Quick, new.Quick)
	}
	cur := make(map[string]bool, len(new.Benchmarks))
	for _, b := range new.Benchmarks {
		cur[b.Name] = true
	}
	prev := make(map[string]PerfBenchmark, len(old.Benchmarks))
	var deltas []PerfDelta
	for _, b := range old.Benchmarks {
		prev[b.Name] = b
		city := b.Name[strings.LastIndexByte(b.Name, '/')+1:]
		if !cur[b.Name] && slices.Contains(new.Cities, city) {
			deltas = append(deltas, PerfDelta{Name: b.Name, OldNs: b.NsPerOp, OldAllocs: b.AllocsPerOp, Missing: true})
		}
	}
	for _, b := range new.Benchmarks {
		p, ok := prev[b.Name]
		if !ok || p.NsPerOp <= 0 {
			continue
		}
		ratio := b.NsPerOp / p.NsPerOp
		deltas = append(deltas, PerfDelta{
			Name:           b.Name,
			OldNs:          p.NsPerOp,
			NewNs:          b.NsPerOp,
			Ratio:          ratio,
			OldAllocs:      p.AllocsPerOp,
			NewAllocs:      b.AllocsPerOp,
			Regression:     ratio > threshold,
			CounterChanges: counterChanges(p.Counters, b.Counters),
			ProbeLost:      p.Counters != nil && b.Counters == nil,
		})
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas, nil
}

// counterChanges returns the counters whose values differ, sorted by
// name, or nil when either side carries no counters (a schema v1 row,
// a benchmark without a probe, or a lost probe, which ComparePerf
// flags on its own).
func counterChanges(old, new map[string]int64) []CounterChange {
	if old == nil || new == nil {
		return nil
	}
	var changes []CounterChange
	for name, v := range new {
		if old[name] != v {
			changes = append(changes, CounterChange{Name: name, Old: old[name], New: v})
		}
	}
	for name, v := range old {
		if _, ok := new[name]; !ok {
			changes = append(changes, CounterChange{Name: name, Old: v})
		}
	}
	sort.Slice(changes, func(i, j int) bool { return changes[i].Name < changes[j].Name })
	return changes
}

// FormatPerfDeltas renders a comparison as an aligned text table, with
// one indented line per changed counter under its row, and reports the
// number of regressions: rows slower than the threshold, with any
// changed counter, with a lost probe, or missing from the new file.
func FormatPerfDeltas(deltas []PerfDelta) (string, int) {
	var sb strings.Builder
	regressions := 0
	fmt.Fprintf(&sb, "%-36s %14s %14s %8s %16s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs old→new")
	for _, d := range deltas {
		if d.Missing {
			regressions++
			fmt.Fprintf(&sb, "%-36s %14.0f %14s %8s %10d→%-6s  MISSING\n", d.Name, d.OldNs, "-", "-", d.OldAllocs, "-")
			continue
		}
		mark := ""
		if d.Regression {
			mark += "  REGRESSION"
		}
		if len(d.CounterChanges) > 0 {
			mark += "  COUNTERS CHANGED"
		}
		if d.ProbeLost {
			mark += "  PROBE LOST"
		}
		if mark != "" {
			regressions++
		}
		fmt.Fprintf(&sb, "%-36s %14.0f %14.0f %+7.1f%% %10d→%-6d%s\n",
			d.Name, d.OldNs, d.NewNs, (d.Ratio-1)*100, d.OldAllocs, d.NewAllocs, mark)
		for _, c := range d.CounterChanges {
			fmt.Fprintf(&sb, "    counter %s: %d→%d\n", c.Name, c.Old, c.New)
		}
	}
	return sb.String(), regressions
}
