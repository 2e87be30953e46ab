// Package cmd_test builds the CLI binaries and exercises their
// end-to-end pipelines: generate → solve → bench report, plus the
// mcfslint static-analysis gate.
package cmd_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mcfs-bin")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"mcfsgen", "mcfscli", "mcfsbench", "mcfscompare", "mcfslint", "mcfsd"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./"+tool)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			panic(tool + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func TestGenThenSolve(t *testing.T) {
	inst := filepath.Join(t.TempDir(), "inst.mcfs")
	run(t, "mcfsgen",
		"-type", "clustered", "-n", "1500", "-clusters", "10",
		"-m", "80", "-l", "200", "-cap", "8", "-k", "15",
		"-seed", "3", "-o", inst)
	if _, err := os.Stat(inst); err != nil {
		t.Fatal(err)
	}
	var objectives []string
	for _, algo := range []string{"wma", "uf", "hilbert", "naive"} {
		out := run(t, "mcfscli", "-algo", algo, "-in", inst)
		if !strings.Contains(out, "objective") {
			t.Fatalf("%s output missing objective:\n%s", algo, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "objective") {
				objectives = append(objectives, strings.TrimSpace(strings.TrimPrefix(line, "objective")))
			}
		}
	}
	if len(objectives) != 4 {
		t.Fatalf("collected %d objectives", len(objectives))
	}
}

func TestCLIAssignmentAndKOverride(t *testing.T) {
	inst := filepath.Join(t.TempDir(), "inst.mcfs")
	run(t, "mcfsgen",
		"-type", "uniform", "-n", "400", "-alpha", "2.5",
		"-m", "10", "-l", "30", "-cap", "4", "-k", "5", "-o", inst)
	out := run(t, "mcfscli", "-algo", "wma", "-in", inst, "-k", "6", "-assignment")
	if !strings.Contains(out, "k=6") {
		t.Fatalf("k override ignored:\n%s", out)
	}
	if strings.Count(out, "customer ") != 10 {
		t.Fatalf("assignment lines missing:\n%s", out)
	}
}

func TestCLIExactTiny(t *testing.T) {
	inst := filepath.Join(t.TempDir(), "inst.mcfs")
	run(t, "mcfsgen",
		"-type", "uniform", "-n", "150", "-alpha", "3",
		"-m", "6", "-l", "6", "-cap", "3", "-k", "3", "-o", inst)
	out := run(t, "mcfscli", "-algo", "exhaustive", "-in", inst)
	if !strings.Contains(out, "objective") {
		t.Fatalf("exhaustive failed:\n%s", out)
	}
}

func TestBenchListAndRun(t *testing.T) {
	out := run(t, "mcfsbench", "-list")
	for _, id := range []string{"F6a", "T4", "F12b", "Q"} {
		if !strings.Contains(out, id) {
			t.Fatalf("-list missing %s:\n%s", id, out)
		}
	}
	dir := t.TempDir()
	csv := filepath.Join(dir, "r.csv")
	md := filepath.Join(dir, "r.md")
	out = run(t, "mcfsbench", "-exp", "F5,T3", "-scale", "0.02", "-csv", csv, "-md", md)
	if !strings.Contains(out, "F5") || !strings.Contains(out, "T3") {
		t.Fatalf("bench output incomplete:\n%s", out)
	}
	for _, f := range []string{csv, md} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", f)
		}
	}
}

func TestGenDIMACSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	gr := filepath.Join(dir, "tiny.gr")
	err := os.WriteFile(gr, []byte("p sp 4 6\na 1 2 5\na 2 1 5\na 2 3 5\na 3 2 5\na 3 4 5\na 4 3 5\n"), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	inst := filepath.Join(dir, "inst.mcfs")
	run(t, "mcfsgen", "-type", "dimacs", "-gr", gr, "-m", "2", "-l", "3", "-cap", "1", "-k", "2", "-o", inst)
	out := run(t, "mcfscli", "-algo", "wma", "-in", inst)
	if !strings.Contains(out, "objective") {
		t.Fatalf("dimacs pipeline failed:\n%s", out)
	}
}

func TestCompareTool(t *testing.T) {
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.mcfs")
	run(t, "mcfsgen",
		"-type", "clustered", "-n", "600", "-clusters", "6",
		"-m", "30", "-l", "80", "-cap", "5", "-k", "8", "-o", inst)
	svg := filepath.Join(dir, "out.svg")
	geo := filepath.Join(dir, "out.json")
	out := run(t, "mcfscompare", "-in", inst, "-algos", "wma,hilbert", "-svg", svg, "-geojson", geo)
	if !strings.Contains(out, "best: ") {
		t.Fatalf("no best line:\n%s", out)
	}
	for _, f := range []string{svg, geo} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Fatalf("export %s missing or empty", f)
		}
	}
}

// startMCFSD launches the daemon on a free port and returns its base
// URL, the debug listener's URL (empty unless -debug-addr was passed),
// the process handle (for crash tests that SIGKILL it), plus a stop
// function that sends SIGTERM and waits for a clean exit.
func startMCFSD(t *testing.T, args ...string) (string, string, *exec.Cmd, func()) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "mcfsd"), append(args, "-addr", "127.0.0.1:0")...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	listenRe := regexp.MustCompile(`listening on (http://\S+)`)
	debugRe := regexp.MustCompile(`debug listener .* on (http://\S+)`)
	var url, debugURL string
	for sc.Scan() {
		if m := debugRe.FindStringSubmatch(sc.Text()); m != nil {
			debugURL = m[1]
			continue
		}
		if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
			url = m[1]
			break
		}
	}
	if url == "" {
		_ = cmd.Process.Kill()
		t.Fatal("mcfsd never printed its listening address")
	}
	// Keep draining stdout so the daemon never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	stop := func() {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("signal mcfsd: %v", err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("mcfsd did not exit cleanly: %v", err)
		}
	}
	return url, debugURL, cmd, stop
}

// getJSON fetches url and decodes the JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestMCFSDServeSnapshotRestart is the serving smoke: start the daemon
// on a quickstart-scale instance, query an assignment, churn the
// population, capture a snapshot, restart from it, and verify the
// restarted daemon publishes the identical objective before shutting
// both down cleanly.
func TestMCFSDServeSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.mcfs")
	run(t, "mcfsgen",
		"-type", "uniform", "-n", "500", "-alpha", "2.5",
		"-m", "40", "-l", "80", "-cap", "8", "-k", "8",
		"-seed", "11", "-o", inst)

	url, _, _, stop := startMCFSD(t, "-in", inst)

	// Liveness and an assignment query.
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var asg struct {
		Customer int   `json:"customer"`
		Facility int   `json:"facility"`
		Node     int32 `json:"node"`
	}
	getJSON(t, url+"/assign?customer=0", &asg)
	if asg.Customer != 0 {
		t.Fatalf("assign reply %+v", asg)
	}

	// Churn so the snapshot captures non-initial state.
	body := strings.NewReader(fmt.Sprintf(`{"nodes":[%d,%d]}`, asg.Node, asg.Node))
	post, err := http.Post(url+"/arrivals", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 200 {
		t.Fatalf("arrivals = %d", post.StatusCode)
	}

	var before struct {
		Objective int64 `json:"objective"`
		Customers int   `json:"customers"`
	}
	getJSON(t, url+"/stats", &before)

	// Snapshot to disk.
	snapPath := filepath.Join(dir, "snap.json")
	snapResp, err := http.Get(url + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snapData, err := io.ReadAll(snapResp.Body)
	snapResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, snapData, 0o644); err != nil {
		t.Fatal(err)
	}
	stop()

	// Restart from the snapshot: the published objective must be
	// byte-identical to the snapshotted one.
	url2, _, _, stop2 := startMCFSD(t, "-in", inst, "-restore", snapPath)
	defer stop2()
	var after struct {
		Objective int64 `json:"objective"`
		Customers int   `json:"customers"`
	}
	getJSON(t, url2+"/stats", &after)
	if after.Objective != before.Objective || after.Customers != before.Customers {
		t.Fatalf("restart drifted: objective %d->%d, customers %d->%d",
			before.Objective, after.Objective, before.Customers, after.Customers)
	}
}

// newestGeneration reports the highest snapshot generation number in
// dir, or 0 when none exist (the directory may not exist yet). Retention
// pruning caps the file COUNT, so waiting on generation numbers is the
// only monotone progress signal.
func newestGeneration(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	genRe := regexp.MustCompile(`^mcfsd-(\d{8,})\.snap\.json$`)
	newest := 0
	for _, e := range entries {
		if m := genRe.FindStringSubmatch(e.Name()); m != nil {
			var g int
			fmt.Sscanf(m[1], "%d", &g)
			if g > newest {
				newest = g
			}
		}
	}
	return newest
}

// TestMCFSDCrashRecovery is the SIGKILL acceptance test: run the daemon
// with a short periodic snapshot interval, churn the population, let
// the policy persist the settled state, kill the process dead (no
// graceful drain), plant a corrupt newer generation, and restart with
// -restore pointed at the directory. The recovered daemon must publish
// exactly the pre-crash settled objective and population — the corrupt
// generation skipped, the work lost bounded by one snapshot interval
// (zero here, because churn quiesced before the last persisted
// generation).
func TestMCFSDCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.mcfs")
	run(t, "mcfsgen",
		"-type", "uniform", "-n", "500", "-alpha", "2.5",
		"-m", "40", "-l", "80", "-cap", "8", "-k", "8",
		"-seed", "11", "-o", inst)
	snapDir := filepath.Join(dir, "snaps")

	url, _, cmd, _ := startMCFSD(t,
		"-in", inst, "-quiet",
		"-snapshot-every", "50ms", "-snapshot-dir", snapDir, "-snapshot-keep", "4")

	// Churn: admit a burst of customers at a known-valid node.
	var asg struct {
		Node int32 `json:"node"`
	}
	getJSON(t, url+"/assign?customer=0", &asg)
	for i := 0; i < 5; i++ {
		body := strings.NewReader(fmt.Sprintf(`{"nodes":[%d,%d]}`, asg.Node, asg.Node))
		resp, err := http.Post(url+"/arrivals", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("arrivals %d = %d", i, resp.StatusCode)
		}
	}
	var pre struct {
		Objective int64 `json:"objective"`
		Customers int   `json:"customers"`
	}
	getJSON(t, url+"/stats", &pre)

	// Wait until two more generations land after churn quiesced. The
	// snapshot loop is sequential, so generation base+2 was captured
	// after base+1 finished persisting — which was after this baseline
	// read — which was after the last arrival was published. It is
	// therefore guaranteed to hold the settled post-churn state.
	base := newestGeneration(snapDir)
	deadline := time.Now().Add(10 * time.Second)
	for newestGeneration(snapDir) < base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot policy stalled at generation %d (baseline %d)", newestGeneration(snapDir), base)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Crash: SIGKILL, no drain. Wait just reaps the corpse.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatal("killed daemon exited cleanly")
	}

	// A corrupt generation newer than every real one: restore must skip
	// it, not die on it.
	corrupt := filepath.Join(snapDir, "mcfsd-99999999.snap.json")
	if err := os.WriteFile(corrupt, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart from the generation directory.
	url2, _, _, stop2 := startMCFSD(t, "-in", inst, "-quiet", "-restore", snapDir)
	defer stop2()
	var post struct {
		Objective int64 `json:"objective"`
		Customers int   `json:"customers"`
	}
	getJSON(t, url2+"/stats", &post)
	if post.Objective != pre.Objective || post.Customers != pre.Customers {
		t.Fatalf("crash recovery drifted: objective %d->%d, customers %d->%d",
			pre.Objective, post.Objective, pre.Customers, post.Customers)
	}
}

// TestMCFSDObservability exercises the observability surface end to
// end: /healthz build info, Prometheus-shaped /metrics with live solver
// work counters, X-Request-Id stamping, and the -debug-addr listener's
// expvar + pprof endpoints.
func TestMCFSDObservability(t *testing.T) {
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.mcfs")
	run(t, "mcfsgen",
		"-type", "uniform", "-n", "500", "-alpha", "2.5",
		"-m", "40", "-l", "80", "-cap", "8", "-k", "8",
		"-seed", "11", "-o", inst)

	url, debugURL, _, stop := startMCFSD(t, "-in", inst, "-debug-addr", "127.0.0.1:0")
	defer stop()
	if debugURL == "" {
		t.Fatal("mcfsd never printed its debug listener address")
	}

	// Build identity on the liveness probe.
	var hz struct {
		Status        string  `json:"status"`
		GoVersion     string  `json:"go_version"`
		VCSRevision   string  `json:"vcs_revision"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	getJSON(t, url+"/healthz", &hz)
	if hz.Status != "ok" || !strings.HasPrefix(hz.GoVersion, "go") || hz.VCSRevision == "" {
		t.Fatalf("healthz build info incomplete: %+v", hz)
	}
	if hz.UptimeSeconds < 0 {
		t.Fatalf("negative uptime: %+v", hz)
	}

	// Drive a little work so the counters move, and check the
	// request-id header on the way.
	resp, err := http.Get(url + "/assign?customer=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("response missing X-Request-Id")
	}

	mResp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, err := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := mResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type %q", ct)
	}
	metrics := string(metricsBody)
	for _, want := range []string{
		"mcfs_sspa_augmenting_paths_total",
		"mcfsd_batches_total",
		"mcfsd_request_duration_seconds_count",
		"# TYPE mcfs_dijkstra_heap_pops_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Debug listener: expvar must publish the same counter names, and
	// the pprof index must answer.
	var vars struct {
		Counters map[string]int64 `json:"mcfs_counters"`
	}
	getJSON(t, debugURL+"/debug/vars", &vars)
	if _, ok := vars.Counters["sspa_augmenting_paths"]; !ok {
		t.Fatalf("expvar mcfs_counters missing solver counters: %v", vars.Counters)
	}
	pp, err := http.Get(debugURL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, pp.Body)
	pp.Body.Close()
	if pp.StatusCode != 200 {
		t.Fatalf("pprof cmdline = %d", pp.StatusCode)
	}
}

// TestCLITrace: -trace writes a JSONL span tree whose lines parse and
// cover the WMA phases, and tracing must not change the reported
// objective.
func TestCLITrace(t *testing.T) {
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.mcfs")
	run(t, "mcfsgen",
		"-type", "clustered", "-n", "600", "-clusters", "6",
		"-m", "30", "-l", "80", "-cap", "5", "-k", "8", "-o", inst)
	plain := run(t, "mcfscli", "-algo", "wma", "-in", inst)
	tracePath := filepath.Join(dir, "trace.jsonl")
	traced := run(t, "mcfscli", "-algo", "wma", "-in", inst, "-trace", tracePath)

	objective := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "objective") {
				return strings.TrimSpace(strings.TrimPrefix(line, "objective"))
			}
		}
		return ""
	}
	if a, b := objective(plain), objective(traced); a == "" || a != b {
		t.Fatalf("objective changed under -trace: %q vs %q", a, b)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var sawSolve, sawIterate bool
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var span struct {
			Depth     int              `json:"depth"`
			Name      string           `json:"name"`
			ElapsedNS int64            `json:"elapsed_ns"`
			Counters  map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		switch span.Name {
		case "wma/solve":
			sawSolve = true
		case "wma/iterate":
			sawIterate = true
		}
	}
	if !sawSolve || !sawIterate {
		t.Fatalf("trace missing wma phases (solve=%v iterate=%v):\n%s", sawSolve, sawIterate, data)
	}
}

// lintSeeds is one minimal violation per mcfslint rule, written into a
// scratch module-shaped tree at the path each path-scoped rule expects.
// path names the file the diagnostic must point at; files carries the
// whole scratch tree (the shared-instance-mutation seed needs a go.mod
// and a sibling package so the typed loader can resolve the instance
// type).
var lintSeeds = []struct {
	rule  string
	path  string
	files map[string]string
}{
	{"ctx-checkpoint", "internal/solver/seed.go", map[string]string{
		"internal/solver/seed.go": "package solver\n\nimport \"context\"\n\nfunc spin(ctx context.Context, n int) {\n\tfor n > 0 {\n\t\tn = n / 2\n\t}\n}\n"}},
	{"api-parity", "seed.go", map[string]string{
		"seed.go": "package mcfs\n\nimport \"context\"\n\nfunc SolveSeed(x int) int { return x * 2 }\n\nfunc SolveSeedCtx(ctx context.Context, x int) int { return x * 2 }\n"}},
	{"determinism", "internal/core/seed.go", map[string]string{
		"internal/core/seed.go": "package core\n\nimport \"time\"\n\nfunc now() time.Time { return time.Now() }\n"}},
	{"closecheck", "cmd/seedtool/main.go", map[string]string{
		"cmd/seedtool/main.go": "package main\n\nimport \"os\"\n\nfunc main() {\n\tf, err := os.Create(\"x\")\n\tif err != nil {\n\t\treturn\n\t}\n\tf.Close()\n}\n"}},
	{"nakedgoroutine", "internal/graph/seed.go", map[string]string{
		"internal/graph/seed.go": "package graph\n\nfunc spawn(work func()) {\n\tgo work()\n}\n"}},
	{"ctx-propagation", "internal/core/seed.go", map[string]string{
		"internal/core/seed.go": "package core\n\nimport \"context\"\n\nfunc fanout(ctx context.Context, fn func(context.Context) error) error {\n\treturn fn(context.Background())\n}\n"}},
	{"published-immutability", "internal/serve/seed.go", map[string]string{
		"go.mod":                      "module scratch\n\ngo 1.22\n",
		"internal/dynamic/publish.go": "package dynamic\n\ntype Published struct {\n\tObjective int64\n\tSelected  []int\n}\n",
		"internal/serve/seed.go":      "package serve\n\nimport \"scratch/internal/dynamic\"\n\nfunc patch(p *dynamic.Published) {\n\tp.Objective = 1\n}\n"}},
	{"single-writer", "internal/serve/seed.go", map[string]string{
		"go.mod":                      "module scratch\n\ngo 1.22\n",
		"internal/dynamic/dynamic.go": "package dynamic\n\ntype Reallocator struct{ ctx int }\n\nfunc (r *Reallocator) SetContext(c int) { r.ctx = c }\n",
		"internal/serve/seed.go":      "package serve\n\nimport \"scratch/internal/dynamic\"\n\ntype Server struct{ r *dynamic.Reallocator }\n\nfunc New() *Server {\n\ts := &Server{r: &dynamic.Reallocator{}}\n\tgo s.loop()\n\treturn s\n}\n\nfunc (s *Server) loop() {}\n\nfunc (s *Server) handleFast(n int) {\n\ts.r.SetContext(n)\n}\n"}},
	{"sentinel-http-parity", "seed.go", map[string]string{
		"go.mod":                 "module scratch\n\ngo 1.22\n",
		"seed.go":                "package scratch\n\nimport \"errors\"\n\nvar ErrLost = errors.New(\"lost\")\n",
		"internal/serve/seed.go": "package serve\n\nfunc statusOf(err error) (int, string) { return 400, \"bad_request\" }\n\nfunc Status(err error) (int, string) { return statusOf(err) }\n"}},
	{"shared-instance-mutation", "internal/bench/seed.go", map[string]string{
		"go.mod":                 "module scratch\n\ngo 1.22\n",
		"internal/data/data.go":  "package data\n\ntype Instance struct {\n\tCustomers []int64\n\tK         int\n}\n",
		"internal/bench/seed.go": "package bench\n\nimport \"scratch/internal/data\"\n\ntype pool struct{ work []func() }\n\nfunc (p *pool) cell(fn func()) { p.work = append(p.work, fn) }\n\nfunc sweep(p *pool, inst *data.Instance) {\n\tp.cell(func() {\n\t\tinst.K = 3\n\t})\n}\n"}},
}

// TestLintSeededViolations is the acceptance check for mcfslint: on a
// clean scratch tree it exits 0; seeding any single violation from each
// rule makes it exit non-zero with a file:line: rule: message
// diagnostic.
func TestLintSeededViolations(t *testing.T) {
	for _, seed := range lintSeeds {
		t.Run(seed.rule, func(t *testing.T) {
			out, code := lintExit(t, nil, "-C", writeTree(t, seed.files), "./...")
			if code == 0 {
				t.Fatalf("mcfslint exited 0 on a seeded %s violation:\n%s", seed.rule, out)
			}
			diag := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(seed.path) + `:\d+: ` + regexp.QuoteMeta(seed.rule) + `: .+$`)
			if !diag.MatchString(out) {
				t.Fatalf("no %q diagnostic in file:line: rule: message form:\n%s", seed.rule, out)
			}
		})
	}
}

// writeTree writes files (slash-separated module-relative path →
// source) into a fresh scratch directory and returns its path.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// lintExit runs mcfslint with args under env and returns its combined
// output and exit status.
func lintExit(t *testing.T, env []string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "mcfslint"), args...)
	cmd.Env = env
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("mcfslint did not run: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

// TestLintTypedFlagGate: mcfslint has one type-checked engine and no
// -typed flag, so a script passing -typed=false gets a usage error
// (exit 2) instead of a run it believes is untyped.
func TestLintTypedFlagGate(t *testing.T) {
	out, code := lintExit(t, nil, "-C", "..", "-typed=false", "./...")
	if code != 2 || !strings.Contains(out, "flag provided but not defined: -typed") {
		t.Fatalf("mcfslint -typed=false: exit %d, want a usage error (exit 2):\n%s", code, out)
	}
}

// TestLintTypeErrorsFailClosed: a tree that does not type-check exits 2
// and lists its type errors — the rules cannot see code the checker
// could not type, so reporting 0 findings would vouch for code nobody
// analyzed — and nothing is cached for it.
func TestLintTypeErrorsFailClosed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/seed.go": "package core\n\nvar x int = \"s\"\n",
	})
	cacheHome := t.TempDir()
	out, code := lintExit(t, append(os.Environ(), "XDG_CACHE_HOME="+cacheHome), "-C", root, "./...")
	if code != 2 || !strings.Contains(out, "internal/core/seed.go:3:") || !strings.Contains(out, "cannot use") {
		t.Fatalf("exit %d, want 2 with the type error listed:\n%s", code, out)
	}
	cached, err := filepath.Glob(filepath.Join(cacheHome, "mcfslint", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cached) != 0 {
		t.Fatalf("a tree with type errors left cache entries: %v", cached)
	}
}

func TestLintCleanTreeAndJSON(t *testing.T) {
	root := t.TempDir()
	clean := "package ok\n\nfunc Add(a, b int) int { return a + b }\n"
	if err := os.MkdirAll(filepath.Join(root, "internal", "ok"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "internal", "ok", "ok.go"), []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "mcfslint", "-C", root, "./...")
	if strings.Contains(out, ": ") && strings.Contains(out, ".go:") {
		t.Fatalf("findings on a clean tree:\n%s", out)
	}
	out = run(t, "mcfslint", "-C", root, "-json", "./...")
	if !strings.Contains(out, "[]") {
		t.Fatalf("-json on a clean tree should emit an empty array:\n%s", out)
	}
}

// TestLintRealModule runs the built analyzer over the repository
// itself: the tree must stay lint-clean.
func TestLintRealModule(t *testing.T) {
	out := run(t, "mcfslint", "-C", "..", "./...")
	if !strings.Contains(out, "0 finding(s)") {
		t.Fatalf("module tree is not lint-clean:\n%s", out)
	}
}

// TestLintEmptyMatch: a pattern that resolves to no Go packages must be
// an explicit usage error (exit 2), not a 0-finding clean bill of
// health on code that was never looked at.
func TestLintEmptyMatch(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"./empty", "./..."} {
		out, code := lintExit(t, nil, "-C", root, pattern)
		if code != 2 {
			t.Fatalf("pattern %s: exit %d, want 2:\n%s", pattern, code, out)
		}
		if !strings.Contains(out, "no Go packages match") {
			t.Fatalf("pattern %s: missing the empty-match diagnostic:\n%s", pattern, out)
		}
	}
}

// TestLintCacheRoundTrip: the second run over an unchanged tree replays
// findings and exit status from the result cache; -nocache bypasses it;
// an edit invalidates the entry.
func TestLintCacheRoundTrip(t *testing.T) {
	root := t.TempDir()
	seedPath := filepath.Join(root, "internal", "solver", "seed.go")
	src := "package solver\n\nimport \"context\"\n\nfunc spin(ctx context.Context, n int) {\n\tfor n > 0 {\n\t\tn = n * 0\n\t}\n}\n"
	if err := os.MkdirAll(filepath.Dir(seedPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seedPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Isolate the cache from the developer's real one.
	env := append(os.Environ(), "XDG_CACHE_HOME="+t.TempDir())
	lintRun := func(args ...string) (string, int) {
		return lintExit(t, env, append([]string{"-C", root}, args...)...)
	}
	diag := regexp.MustCompile(`(?m)^internal/solver/seed\.go:\d+: ctx-checkpoint: .+$`)

	cold, code := lintRun("./...")
	if code != 1 || !diag.MatchString(cold) || !strings.Contains(cold, "cache miss") {
		t.Fatalf("cold run: exit %d, want 1 with a ctx-checkpoint finding and a cache miss:\n%s", code, cold)
	}
	warm, code := lintRun("./...")
	if code != 1 || !diag.MatchString(warm) || !strings.Contains(warm, "cache hit") {
		t.Fatalf("warm run: exit %d, want 1 with the replayed finding and a cache hit:\n%s", code, warm)
	}
	off, code := lintRun("-nocache", "./...")
	if code != 1 || !diag.MatchString(off) || !strings.Contains(off, "cache off") {
		t.Fatalf("-nocache run: exit %d, want 1 with a fresh finding and cache off:\n%s", code, off)
	}
	// Fixing the violation changes the tree hash: miss, then clean hit.
	fixed := strings.Replace(src, "for n > 0 {", "for n > 0 {\n\t\tif ctx.Err() != nil {\n\t\t\treturn\n\t\t}", 1)
	if err := os.WriteFile(seedPath, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	clean, code := lintRun("./...")
	if code != 0 || !strings.Contains(clean, "cache miss") || !strings.Contains(clean, "0 finding(s)") {
		t.Fatalf("post-edit run: exit %d, want 0 findings after a cache miss:\n%s", code, clean)
	}
	cleanWarm, code := lintRun("./...")
	if code != 0 || !strings.Contains(cleanWarm, "cache hit") {
		t.Fatalf("post-edit warm run: exit %d, want a clean cache hit:\n%s", code, cleanWarm)
	}
}
