package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"

	"mcfs/internal/obs"
)

// runtimeStats is what the Go runtime reports over an interval: GC and
// total CPU time (runtime/metrics estimates) and heap allocations.
type runtimeStats struct{ gcCPU, totalCPU, objects, bytes float64 }

var runtimeNames = [...]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeStats{v(0), v(1), v(2), v(3)}
}

// since returns the change from an earlier reading to now.
func (a runtimeStats) since() runtimeStats {
	b := readRuntime()
	return runtimeStats{b.gcCPU - a.gcCPU, b.totalCPU - a.totalCPU, b.objects - a.objects, b.bytes - a.bytes}
}

func (a runtimeStats) plus(b runtimeStats) runtimeStats {
	return runtimeStats{a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.objects + b.objects, a.bytes + b.bytes}
}

// resetPeakRSS restarts the process's peak resident set size (VmHWM)
// from its current resident set, so that peakRSSMB then reads the peak
// of what runs in between. Writing 5 to clear_refs does only that
// (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

// workCounters returns the recorder's nonzero work counters.
func workCounters(rec *obs.Recorder) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range rec.Snapshot() {
		if v != 0 {
			out[name] = v
		}
	}
	return out
}

// writeSpans writes a traced run's span trees, one JSON object per span,
// to .bench_build/trace/<workload>-seed<n>.jsonl under the working
// directory.
func writeSpans(workload string, seed int64, spans []*obs.Span) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteSpansJSONL(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
