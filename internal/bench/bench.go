// Package bench regenerates every table and figure of the paper's
// evaluation (§VII). Each experiment id (F5, F6a–F6d, F7a–F7d, F8a–F8d,
// F9a, F9b, T3, T4, F10, F12a, F12b, F13a, F13b, plus the ablations) has
// a registered runner that sweeps the paper's parameters — scaled to the
// host by a size factor — runs every competing algorithm, and emits one
// Row per (x-value, algorithm) point. cmd/mcfsbench renders the rows as
// CSV and markdown; bench_test.go wraps each experiment in a testing.B
// benchmark.
package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mcfs"
	"mcfs/internal/data"
	"mcfs/internal/gen"
	"mcfs/internal/obs"
	"mcfs/internal/solver"
)

// Algo names a competing algorithm as it appears in result rows.
type Algo string

// Algorithms, in the paper's naming.
const (
	AlgoWMA     Algo = "wma"
	AlgoUF      Algo = "wma-uf"
	AlgoNaive   Algo = "wma-naive"
	AlgoHilbert Algo = "hilbert"
	AlgoBRNN    Algo = "brnn"
	AlgoExact   Algo = "exact" // Gurobi stand-in (branch & bound)
)

// publicAlgo maps the row labels (the paper's naming) onto the public
// registry, which provides the single dispatch point shared with the
// commands; bench keeps its own labels because the emitted rows are
// stable output.
var publicAlgo = map[Algo]mcfs.Algorithm{
	AlgoWMA:     mcfs.AlgorithmWMA,
	AlgoUF:      mcfs.AlgorithmUniformFirst,
	AlgoNaive:   mcfs.AlgorithmNaive,
	AlgoHilbert: mcfs.AlgorithmHilbert,
	AlgoBRNN:    mcfs.AlgorithmBRNN,
	AlgoExact:   mcfs.AlgorithmExact,
}

// Row is one measured point of an experiment.
type Row struct {
	Exp       string        // experiment id, e.g. "F6a"
	X         string        // x-axis label, e.g. "n"
	XVal      float64       // x-axis value
	Algo      Algo          // algorithm (empty for stat-only rows)
	Objective int64         // objective value; -1 when not applicable
	Runtime   time.Duration // wall-clock solve time
	Note      string        // "", "timeout", "infeasible", or a stat payload
	// Counters holds the solver work counters recorded during the run
	// (nonzero entries only, keyed by obs counter name); nil for
	// stat-only rows. Counters are machine-independent: unlike Runtime
	// they are byte-stable across hosts and worker counts, which makes
	// them the column to diff when chasing algorithmic regressions.
	Counters map[string]int64
}

// Config tunes an experiment run.
type Config struct {
	// Scale multiplies the default (laptop-sized) sweep sizes; 1 is the
	// default small run, larger values approach the paper's sizes.
	Scale float64
	// ExactBudget bounds each exact-solver point; expiry is recorded as
	// "timeout" — the analogue of the paper's 24-hour Gurobi cutoff.
	// Zero means 15 seconds.
	ExactBudget time.Duration
	// AlgoTimeout bounds each heuristic-algorithm point with a context
	// deadline; expiry is recorded as "timeout" (with no objective — the
	// heuristics hold no incumbent mid-run). Zero means unlimited. The
	// exact solver keeps its separate ExactBudget.
	AlgoTimeout time.Duration
	// Seed drives all data generation.
	Seed int64
	// SkipExact and SkipBRNN drop the slowest competitors (useful for
	// quick regression runs).
	SkipExact bool
	SkipBRNN  bool
	// Workers bounds the number of experiment cells (instance generation
	// plus one algorithm run) solved concurrently; 0 or negative means
	// runtime.GOMAXPROCS(0). Row output is deterministic at any worker
	// count, except the two fields that are wall-clock by nature: Runtime
	// values, and the incumbent objective of exact rows marked "timeout"
	// (how far branch & bound gets before its cutoff depends on machine
	// load — it varies between two serial runs too).
	Workers int
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.ExactBudget == 0 {
		c.ExactBudget = 15 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Runner executes one experiment. Rows are emitted in a deterministic
// order regardless of Config.Workers: parallel runners buffer each
// cell's rows and replay them in cell-submission order (see parallel.go).
type Runner func(cfg Config, emit func(Row)) error

var registry = map[string]Runner{}

func register(id string, r Runner) {
	registry[id] = r
}

// IDs returns all registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Known reports whether an experiment id is registered. Callers running
// several experiments should validate every id up front so that a typo
// late in the list does not surface only after earlier experiments have
// already burned their runtime.
func Known(id string) bool {
	_, ok := registry[id]
	return ok
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config, emit func(Row)) error {
	r, ok := registry[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return r(cfg.normalized(), emit)
}

// scaleInts multiplies a base sweep by cfg.Scale, rounding and
// deduplicating.
func scaleInts(base []int, scale float64) []int {
	out := make([]int, 0, len(base))
	last := -1
	for _, b := range base {
		v := int(float64(b) * scale)
		if v < 8 {
			v = 8
		}
		if v != last {
			out = append(out, v)
			last = v
		}
	}
	return out
}

// runAlgo measures one algorithm on one instance and emits a row. The
// solution is re-verified from scratch; verification failures surface in
// the note (they indicate bugs, not data properties).
func runAlgo(exp, x string, xv float64, algo Algo, inst *data.Instance, cfg Config, seed int64, emit func(Row)) {
	pub, known := publicAlgo[algo]
	var sol *data.Solution
	var note string
	var err error
	rec := obs.New()
	start := time.Now()
	if !known {
		err = fmt.Errorf("bench: unknown algorithm %q", algo)
	} else {
		opts := []mcfs.Option{mcfs.WithSeed(seed)}
		if algo == AlgoExact {
			opts = append(opts, mcfs.WithTimeBudget(cfg.ExactBudget))
		} else if cfg.AlgoTimeout > 0 {
			opts = append(opts, mcfs.WithTimeBudget(cfg.AlgoTimeout))
		}
		// Recording is passive (see internal/obs): the counters never feed
		// back into the solve, and the per-flush atomic adds are noise next
		// to a solve, so the Runtime column stays comparable to old rows.
		sol, note, err = pub.Solve(obs.WithRecorder(context.Background(), rec), inst, opts...)
	}
	elapsed := time.Since(start)

	// The registry reports an expired exact budget as a note on the
	// incumbent; an expired AlgoTimeout surfaces as a context deadline
	// error. Both are the paper's "solver cut off" outcome.
	timedOut := note == "timeout (best incumbent)" ||
		errors.Is(err, solver.ErrTimeout) || errors.Is(err, context.DeadlineExceeded)

	row := Row{Exp: exp, X: x, XVal: xv, Algo: algo, Runtime: elapsed, Objective: -1,
		Counters: nonzeroCounters(rec)}
	switch {
	case timedOut:
		// The incumbent at cutoff gets the same from-scratch verification
		// as every completed result before its objective is trusted.
		row.Note = "timeout"
		if sol != nil {
			if _, verr := inst.CheckSolution(sol); verr != nil {
				row.Note = "timeout; VERIFICATION FAILED: " + verr.Error()
			} else {
				row.Objective = sol.Objective // best incumbent at cutoff
			}
		}
	case errors.Is(err, data.ErrInfeasible):
		row.Note = "infeasible"
	case err != nil:
		row.Note = "error: " + err.Error()
	default:
		if _, verr := inst.CheckSolution(sol); verr != nil {
			row.Note = "VERIFICATION FAILED: " + verr.Error()
		} else {
			row.Objective = sol.Objective
		}
	}
	emit(row)
}

// nonzeroCounters snapshots rec's nonzero work counters; nil when the
// run recorded nothing (e.g. an unknown algorithm short-circuited).
func nonzeroCounters(rec *obs.Recorder) map[string]int64 {
	var out map[string]int64
	for _, c := range obs.Counters() {
		if v := rec.Counter(c); v != 0 {
			if out == nil {
				out = make(map[string]int64, 8)
			}
			out[c.Name()] = v
		}
	}
	return out
}

// feasibleCustomers samples m customers over the whole node set and
// retries with shifted seeds when the resulting instance would be
// infeasible (customers scattered into more tiny components than the
// budget covers); as a last resort it samples from the largest
// component. The facilities and budget must already be set on inst.
func feasibleCustomers(inst *data.Instance, m int, seed int64) {
	for attempt := int64(0); attempt < 4; attempt++ {
		rng := rand.New(rand.NewSource(seed + attempt))
		inst.Customers = gen.SampleCustomers(inst.G, m, rng)
		if ok, _ := inst.Feasible(); ok {
			return
		}
	}
	rng := rand.New(rand.NewSource(seed + 4))
	inst.Customers = gen.SampleCustomersFrom(gen.LargestComponent(inst.G), m, rng)
}

// disjointWorkload places m customers and makes every non-customer node
// a candidate with capacity from capFn — the paper's convention of not
// co-locating facilities with customers (its §IV-B example), which keeps
// the F_p = V panels nondegenerate when k approaches m. Retries seeds
// until feasible, falling back to the largest component.
func disjointWorkload(inst *data.Instance, m, k int, capFn func(int) int, seed int64) {
	build := func(customers []int32) {
		isCust := make(map[int32]bool, len(customers))
		for _, s := range customers {
			isCust[s] = true
		}
		var pool []int32
		for v := int32(0); v < int32(inst.G.N()); v++ {
			if !isCust[v] {
				pool = append(pool, v)
			}
		}
		inst.Customers = customers
		inst.Facilities = gen.NodesFacilities(pool, capFn)
		inst.K = k
	}
	for attempt := int64(0); attempt < 4; attempt++ {
		rng := rand.New(rand.NewSource(seed + attempt))
		build(gen.SampleCustomers(inst.G, m, rng))
		if ok, _ := inst.Feasible(); ok {
			return
		}
	}
	rng := rand.New(rand.NewSource(seed + 4))
	pool := gen.LargestComponent(inst.G)
	build(gen.SampleCustomersFrom(pool, m, rng))
}
