package main

import (
	"time"

	"mcfs/internal/obs"
)

// coreSplit is one WMA solve's time by phase, read from its wma/solve
// span: match and cover sum the wma/match and wma/cover spans under it,
// and self is the solve span minus its direct children.
type coreSplit struct{ match, cover, self time.Duration }

// coreSplits finds every wma/solve span in a span forest.
func coreSplits(spans []*obs.Span) []coreSplit {
	var out []coreSplit
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Name != "wma/solve" {
			for _, c := range s.Children {
				walk(c)
			}
			return
		}
		split := coreSplit{self: s.Elapsed}
		for _, c := range s.Children {
			split.self -= c.Elapsed
			for _, g := range c.Children {
				switch g.Name {
				case "wma/match":
					split.match += g.Elapsed
				case "wma/cover":
					split.cover += g.Elapsed
				}
			}
		}
		out = append(out, split)
	}
	for _, s := range spans {
		walk(s)
	}
	return out
}

// layers is what a traced run measured, layer by layer. A workload
// leaves the fields of layers it never reaches at zero.
type layers struct {
	solves     []coreSplit
	iterations float64          // wma_iterations per solve
	work       map[string]int64 // bipartite counters over perOp operations
	perOp      float64          // solves (solve-table4) or write requests (serve)

	prof *profiler

	add, publish, rebuild []float64 // Reallocator calls: µs, µs, ms
	reroutedPerDeparture  float64
	fullSolves            float64

	selfArrivals, assignUs []float64 // µs
	batchOpsMean           float64

	rt          runtimeStats // over the measured operations
	ops         float64      // operations rt covers
	overheadPct float64

	refMs float64 // reference kernel CPU time (reference.go)
}

// overheadPct is the tracing overhead in percent: the median over n
// adjacent pairs of a traced and an untraced run of the same work of
// their time ratio, minus one. Pairing cancels drift in host speed that
// medians taken separately would keep.
func overheadPct(n int, pair func(k int) (traced, plain time.Duration)) float64 {
	xs := make([]float64, n)
	for k := range xs {
		t, p := pair(k)
		xs[k] = ratio(float64(t), float64(p))
	}
	return (percentile(xs, 0.5) - 1) * 100
}

func (l *layers) metrics() map[string]metric {
	median := func(f func(coreSplit) time.Duration) float64 {
		xs := make([]float64, len(l.solves))
		for i, s := range l.solves {
			xs[i] = ms(f(s))
		}
		return percentile(xs, 0.5)
	}
	per := func(counter string) float64 { return ratio(float64(l.work[counter]), l.perOp) }
	return map[string]metric{
		"core.wma_iterations": {l.iterations, "count"},
		"core.match_ms":       {median(func(s coreSplit) time.Duration { return s.match }), "ms"},
		"core.cover_ms":       {median(func(s coreSplit) time.Duration { return s.cover }), "ms"},
		"core.self_ms":        {median(func(s coreSplit) time.Duration { return s.self }), "ms"},
		"core.cpu_share":      {l.prof.share("mcfs/internal/core"), "ratio"},

		"bipartite.sspa_searches":      {per("sspa_searches"), "count"},
		"bipartite.nodes_scanned":      {per("sspa_nodes_scanned"), "count"},
		"bipartite.edges_materialized": {per("sspa_edges_materialized"), "count"},
		"bipartite.augmenting_paths":   {per("sspa_augmenting_paths"), "count"},
		"bipartite.paths_per_search":   {ratio(per("sspa_augmenting_paths"), per("sspa_searches")), "ratio"},
		"bipartite.cpu_share":          {l.prof.share("mcfs/internal/bipartite"), "ratio"},

		"graph.cpu_share": {l.prof.share("mcfs/internal/graph"), "ratio"},
		"pq.cpu_share":    {l.prof.share("mcfs/internal/pq"), "ratio"},

		"dynamic.add_us_p50":             {percentile(l.add, 0.5), "us"},
		"dynamic.publish_us_p50":         {percentile(l.publish, 0.5), "us"},
		"dynamic.rebuild_ms_p50":         {percentile(l.rebuild, 0.5), "ms"},
		"dynamic.rerouted_per_departure": {l.reroutedPerDeparture, "count"},
		"dynamic.full_solves":            {l.fullSolves, "count"},
		"dynamic.cpu_share":              {l.prof.share("mcfs/internal/dynamic"), "ratio"},

		"serve.self_us_p50.arrivals": {percentile(l.selfArrivals, 0.5), "us"},
		"serve.batch_ops_mean":       {l.batchOpsMean, "count"},
		"serve.assign_us_p50":        {percentile(l.assignUs, 0.5), "us"},
		"serve.assign_us_p90":        {percentile(l.assignUs, 0.9), "us"},
		"serve.cpu_share":            {l.prof.share("mcfs/internal/serve"), "ratio"},

		"runtime.gc_cpu_share":       {ratio(l.rt.gcCPU, l.rt.totalCPU), "ratio"},
		"runtime.allocs_per_op":      {ratio(l.rt.objects, l.ops), "count"},
		"runtime.alloc_bytes_per_op": {ratio(l.rt.bytes, l.ops), "B"},
		"obs.overhead_pct":           {l.overheadPct, "%"},

		"host.ref_ms": {l.refMs, "ms"},
	}
}
