package main

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"mcfs"
	"mcfs/internal/obs"
)

// setupRepeats is how often solve-table4 builds its instance and solves
// it once untimed; setup_s is the median of their CPU times, scaled by
// the reference kernel like every end-to-end time.
const setupRepeats = 9

// runSolve is solve-table4: repeated mcfs.AlgorithmWMA.Solve calls on the
// Table IV instance, the offline planner's use of WMA.
func runSolve(cfg config) (*outcome, error) {
	ctx := context.Background()
	var setups []float64
	var inst *mcfs.Instance
	var first *mcfs.Solution
	for i := 0; i < setupRepeats; i++ {
		start := cpuNow()
		in, _, err := tableIV()
		if err != nil {
			return nil, err
		}
		sol, _, err := mcfs.AlgorithmWMA.Solve(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
		setups = append(setups, (cpuNow() - start).Seconds())
		inst, first = in, sol
	}
	out := &outcome{}
	if err := checkSolve(inst, first, solveObjective); err != nil {
		out.problem("%v", err)
	}
	// Every later solve must return this very solution.
	same := func(sol *mcfs.Solution) {
		if sol.Objective != first.Objective || !slices.Equal(sol.Selected, first.Selected) || !slices.Equal(sol.Assignment, first.Assignment) {
			out.problem("solve %d returned objective %d, the first returned %d", out.attempted, sol.Objective, first.Objective)
		}
	}
	solve := func(ctx context.Context) (time.Duration, bool) {
		out.attempted++
		start := time.Now()
		sol, _, err := mcfs.AlgorithmWMA.Solve(ctx, inst)
		d := time.Since(start)
		if err != nil {
			out.failed++
			out.problem("solve %d: %v", out.attempted, err)
			return d, false
		}
		same(sol)
		return d, true
	}

	if cfg.trace {
		return traceSolve(cfg, out, solve)
	}

	// Each solve is followed by a run of the reference kernel, so its
	// samples span the same minutes as the solves.
	ref := newReference()
	var lat []float64 // CPU ms per solve
	var busy float64  // CPU ms of all solves
	var rss []float64 // peak resident set per solve, MB
	start := time.Now()
	for len(lat) == 0 || time.Since(start) < cfg.seconds {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		before := cpuNow()
		if _, ok := solve(ctx); !ok {
			break
		}
		lat = append(lat, ms(cpuNow()-before))
		busy += lat[len(lat)-1]
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		ref.sample()
	}

	// One more solve, untimed, carries a recorder for the work counters.
	rec := obs.New()
	if _, ok := solve(obs.WithRecorder(ctx, rec)); ok {
		out.counters = workCounters(rec)
	}
	x := ref.scale()
	ref.report()
	out.metrics = map[string]metric{
		"setup_s":       {percentile(setups, 0.5) * x, "s"},
		"op_cpu_ms_p50": {percentile(lat, 0.5) * x, "ms"},
		"op_cpu_ms_p90": {percentile(lat, 0.9) * x, "ms"},
		"ops_per_cpu_s": {float64(len(lat)) / (busy / 1000) / x, "1/s"},
		"objective":     {float64(first.Objective), "distance"},
		"peak_rss_mb":   {percentile(rss, 0.5), "MB"},
	}
	return out, nil
}

// traceSolve is solve-table4's traced run: traced solves, each with a
// fresh recorder (the span tree caps at 4096 spans and one solve opens
// about 1.2k), alternate with untraced ones under the CPU profiler. The
// untraced solves give the runtime figures and the tracing overhead.
func traceSolve(cfg config, out *outcome, solve func(context.Context) (time.Duration, bool)) (*outcome, error) {
	prof := &profiler{}
	l := &layers{prof: prof, perOp: 1}
	var traced, plain []time.Duration
	var spans []*obs.Span
	if err := prof.start(); err != nil {
		return nil, err
	}
	start := time.Now()
	for len(plain) < 2 || time.Since(start) < cfg.seconds {
		rec := obs.New()
		d, ok := solve(obs.WithRecorder(context.Background(), rec))
		if !ok {
			break
		}
		traced = append(traced, d)
		s := rec.Spans()
		spans = append(spans, s...)
		l.solves = append(l.solves, coreSplits(s)...)
		if c := workCounters(rec); out.counters == nil {
			out.counters = c
		} else if !maps.Equal(c, out.counters) {
			out.problem("solve %d counted %v, the first traced solve %v", out.attempted, c, out.counters)
		}

		before := readRuntime()
		d, ok = solve(context.Background())
		if !ok {
			break
		}
		l.rt = l.rt.plus(before.since())
		plain = append(plain, d)
	}
	if err := prof.stop(); err != nil {
		return nil, err
	}
	l.refMs = hostSpeed()
	l.work = out.counters
	l.iterations = float64(out.counters["wma_iterations"])
	l.ops = float64(len(plain))
	l.overheadPct = overheadPct(len(plain), func(k int) (time.Duration, time.Duration) { return traced[k], plain[k] })
	out.metrics = l.metrics()
	return out, writeSpans("solve-table4", cfg.seed, spans)
}
