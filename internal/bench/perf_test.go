package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// perfFile builds a minimal perf file holding rows.
func perfFile(schema string, quick bool, rows ...PerfBenchmark) *PerfFile {
	return &PerfFile{Schema: schema, Quick: quick, Benchmarks: rows}
}

// TestReadPerfFileSchemas: the current schema and the older v1 layout
// load; an unknown schema, malformed JSON and a missing file are errors.
func TestReadPerfFileSchemas(t *testing.T) {
	dir := t.TempDir()
	for _, schema := range []string{PerfSchema, perfSchemaV1} {
		path := filepath.Join(dir, "ok.json")
		want := perfFile(schema, true, PerfBenchmark{Name: "Dijkstra/aalborg", Iterations: 7, NsPerOp: 1500,
			Counters: map[string]int64{"dijkstra_heap_pops": 42}})
		if err := WritePerfFile(want, path); err != nil {
			t.Fatal(err)
		}
		got, err := ReadPerfFile(path)
		if err != nil {
			t.Fatalf("schema %q: %v", schema, err)
		}
		if got.Schema != schema || !got.Quick || len(got.Benchmarks) != 1 ||
			got.Benchmarks[0].NsPerOp != 1500 || got.Benchmarks[0].Counters["dijkstra_heap_pops"] != 42 {
			t.Fatalf("schema %q: round trip = %+v, want %+v", schema, got, want)
		}
	}

	unknown := filepath.Join(dir, "unknown.json")
	if err := WritePerfFile(perfFile("mcfs-bench/99", false), unknown); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPerfFile(unknown); err == nil || !strings.Contains(err.Error(), "mcfs-bench/99") {
		t.Fatalf("unknown schema: err = %v, want a schema error naming it", err)
	}

	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, []byte(`{"schema": `), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPerfFile(torn); err == nil {
		t.Fatal("malformed JSON was accepted")
	}
	if _, err := ReadPerfFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file was accepted")
	}
}

// TestComparePerfRejectsBadInput: a threshold that cannot mean "slower
// by more than x" and a quick-vs-full comparison are both refused.
func TestComparePerfRejectsBadInput(t *testing.T) {
	full := perfFile(PerfSchema, false)
	for _, threshold := range []float64{1, 0.9, 0} {
		if _, err := ComparePerf(full, full, threshold); err == nil {
			t.Errorf("threshold %v accepted; it must exceed 1", threshold)
		}
	}
	if _, err := ComparePerf(perfFile(PerfSchema, true), full, 1.15); err == nil || !strings.Contains(err.Error(), "quick") {
		t.Fatalf("quick vs full: err = %v, want a refusal", err)
	}
}

// TestComparePerfDeltas: only names present on both sides (with a
// usable old timing) are compared, in name order, and a slowdown past
// the threshold is flagged — and counted by FormatPerfDeltas.
func TestComparePerfDeltas(t *testing.T) {
	old := perfFile(perfSchemaV1, false,
		PerfBenchmark{Name: "WMA/aalborg", NsPerOp: 1000, AllocsPerOp: 10},
		PerfBenchmark{Name: "Dijkstra/aalborg", NsPerOp: 1000, AllocsPerOp: 3},
		PerfBenchmark{Name: "Gone/aalborg", NsPerOp: 1000},
		PerfBenchmark{Name: "Zero/aalborg", NsPerOp: 0},
	)
	cur := perfFile(PerfSchema, false,
		PerfBenchmark{Name: "WMA/aalborg", NsPerOp: 1300, AllocsPerOp: 12},
		PerfBenchmark{Name: "Dijkstra/aalborg", NsPerOp: 1100, AllocsPerOp: 3},
		PerfBenchmark{Name: "New/aalborg", NsPerOp: 1000},
		PerfBenchmark{Name: "Zero/aalborg", NsPerOp: 500},
	)
	deltas, err := ComparePerf(old, cur, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 || deltas[0].Name != "Dijkstra/aalborg" || deltas[1].Name != "WMA/aalborg" {
		t.Fatalf("deltas = %+v, want Dijkstra then WMA only", deltas)
	}
	if d := deltas[0]; d.Regression || d.Ratio != 1.1 {
		t.Errorf("Dijkstra: %+v, want ratio 1.1 within threshold", d)
	}
	if d := deltas[1]; !d.Regression || d.Ratio != 1.3 || d.OldAllocs != 10 || d.NewAllocs != 12 {
		t.Errorf("WMA: %+v, want a flagged 1.3 ratio with allocs 10→12", d)
	}

	table, regressions := FormatPerfDeltas(deltas)
	if regressions != 1 {
		t.Errorf("FormatPerfDeltas counted %d regressions, want 1:\n%s", regressions, table)
	}
	lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "benchmark") {
		t.Fatalf("table = %q, want a header and two rows", table)
	}
	if strings.Contains(lines[1], "REGRESSION") || !strings.Contains(lines[2], "+30.0%") || !strings.HasSuffix(lines[2], "REGRESSION") {
		t.Errorf("rows do not mark exactly the WMA regression:\n%s", table)
	}
}

// TestComparePerfCounters: counters are compared exactly when both rows
// carry them — a changed value, or a counter present on one side only,
// is listed and makes FormatPerfDeltas count the row even when its
// timing is within the threshold; a row without old counters (schema
// v1, or no probe) is not compared, and a row whose new side lost them
// is flagged as a lost probe.
func TestComparePerfCounters(t *testing.T) {
	old := perfFile(perfSchemaV1, false,
		PerfBenchmark{Name: "A/aalborg", NsPerOp: 1000, Counters: map[string]int64{"pops": 7, "scans": 3}},
		PerfBenchmark{Name: "B/aalborg", NsPerOp: 1000, Counters: map[string]int64{"pops": 7, "gone": 1}},
		PerfBenchmark{Name: "C/aalborg", NsPerOp: 1000},
		PerfBenchmark{Name: "D/aalborg", NsPerOp: 1000, Counters: map[string]int64{"pops": 7}},
	)
	cur := perfFile(PerfSchema, false,
		PerfBenchmark{Name: "A/aalborg", NsPerOp: 500, Counters: map[string]int64{"pops": 7, "scans": 3}},
		PerfBenchmark{Name: "B/aalborg", NsPerOp: 500, Counters: map[string]int64{"pops": 8, "new": 2}},
		PerfBenchmark{Name: "C/aalborg", NsPerOp: 500, Counters: map[string]int64{"pops": 9}},
		PerfBenchmark{Name: "D/aalborg", NsPerOp: 500},
	)
	deltas, err := ComparePerf(old, cur, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 4 {
		t.Fatalf("deltas = %+v, want four rows", deltas)
	}
	want := []CounterChange{{Name: "gone", Old: 1}, {Name: "new", New: 2}, {Name: "pops", Old: 7, New: 8}}
	if !reflect.DeepEqual(deltas[1].CounterChanges, want) {
		t.Errorf("B counter changes = %+v, want %+v", deltas[1].CounterChanges, want)
	}
	for _, i := range []int{0, 2, 3} {
		if d := deltas[i]; d.CounterChanges != nil || d.Regression || d.ProbeLost != (i == 3) {
			t.Errorf("%s: %+v, want no counter change and no regression, a lost probe only on D", d.Name, d)
		}
	}

	table, regressions := FormatPerfDeltas(deltas)
	if regressions != 2 {
		t.Errorf("FormatPerfDeltas counted %d regressions, want 2 (B and D):\n%s", regressions, table)
	}
	for _, line := range []string{"    counter gone: 1→0", "    counter new: 0→2", "    counter pops: 7→8"} {
		if !strings.Contains(table, line+"\n") {
			t.Errorf("table lacks %q:\n%s", line, table)
		}
	}
	if !strings.Contains(table, "COUNTERS CHANGED") || !strings.Contains(table, "PROBE LOST") || strings.Contains(table, "REGRESSION") {
		t.Errorf("table should flag B's counters, D's lost probe and no timing regression:\n%s", table)
	}
}

// TestComparePerfDroppedRowsAndProbes: a row the new file lacks counts
// as a regression when the new file measured its city, and so does a
// row whose counters vanished; a v1 baseline, which has no counters,
// still compares clean against a v2 run of the same rows.
func TestComparePerfDroppedRowsAndProbes(t *testing.T) {
	counted := map[string]int64{"pops": 7}
	old := perfFile(PerfSchema, false,
		PerfBenchmark{Name: "Kept/aalborg", NsPerOp: 1000, Counters: counted},
		PerfBenchmark{Name: "Unprobed/aalborg", NsPerOp: 1000, Counters: counted},
		PerfBenchmark{Name: "Dropped/aalborg", NsPerOp: 1000, AllocsPerOp: 4, Counters: counted},
		PerfBenchmark{Name: "Dropped/copenhagen", NsPerOp: 1000, Counters: counted},
	)
	cur := perfFile(PerfSchema, false,
		PerfBenchmark{Name: "Kept/aalborg", NsPerOp: 1000, Counters: counted},
		PerfBenchmark{Name: "Unprobed/aalborg", NsPerOp: 1000},
	)
	cur.Cities = []string{"aalborg"}
	deltas, err := ComparePerf(old, cur, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	table, regressions := FormatPerfDeltas(deltas)
	if regressions != 2 {
		t.Errorf("FormatPerfDeltas counted %d regressions, want 2 (the dropped aalborg row and the lost probe):\n%s", regressions, table)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		if name, _, ok := strings.Cut(line, " "); ok {
			rows[name] = line
		}
	}
	if !strings.HasSuffix(rows["Dropped/aalborg"], "MISSING") || !strings.HasSuffix(rows["Unprobed/aalborg"], "PROBE LOST") {
		t.Errorf("table does not flag the dropped row and the lost probe:\n%s", table)
	}
	if _, ok := rows["Dropped/copenhagen"]; ok {
		t.Errorf("table lists a row of a city the new file did not measure:\n%s", table)
	}
	if kept, ok := rows["Kept/aalborg"]; !ok || strings.Contains(kept, "MISSING") || strings.Contains(kept, "LOST") {
		t.Errorf("table does not list the unchanged row unflagged:\n%s", table)
	}

	v1 := perfFile(perfSchemaV1, false,
		PerfBenchmark{Name: "Kept/aalborg", NsPerOp: 1000},
		PerfBenchmark{Name: "Unprobed/aalborg", NsPerOp: 1000},
	)
	deltas, err = ComparePerf(v1, cur, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if table, regressions := FormatPerfDeltas(deltas); regressions != 0 || len(deltas) != 2 {
		t.Errorf("v1 baseline: %d rows, %d regressions, want 2 clean rows:\n%s", len(deltas), regressions, table)
	}
}
