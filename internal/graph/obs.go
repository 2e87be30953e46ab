package graph

import "mcfs/internal/obs"

// flushSearchCounters adds one search's locally accumulated work
// counters to rec. Searches count into plain locals on the hot path and
// flush here exactly once on exit, so the per-pop cost with or without
// a recorder is identical (BenchmarkRecorderOverhead pins the
// recorder-absent delta). rec must be non-nil; callers install the
// flushing defer only after a successful obs.From.
func flushSearchCounters(rec *obs.Recorder, pops, relax int64) {
	rec.Add(obs.DijkstraHeapPops, pops)
	rec.Add(obs.DijkstraRelaxations, relax)
}
