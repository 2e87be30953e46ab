package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mcfs"
)

// testInstance builds a moderate synthetic instance with enough
// capacity slack that churn stays feasible.
func testInstance(t testing.TB) *mcfs.Instance {
	t.Helper()
	g, err := mcfs.GenerateSynthetic(mcfs.SyntheticConfig{N: 300, Alpha: 2.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	pool := mcfs.LargestComponent(g)
	return &mcfs.Instance{
		G:          g,
		Customers:  mcfs.SampleCustomersFrom(pool, 30, rng),
		Facilities: mcfs.SampleFacilitiesFrom(pool, 60, rng, mcfs.UniformCapacity(10)),
		K:          8,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Instance == nil {
		cfg.Instance = testInstance(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// call performs one JSON request and decodes the response into out
// (skipped when out is nil); it returns the HTTP status.
func call(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var reader io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

func TestServeLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Health and initial reads.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var asg AssignReply
	if code := call(t, "GET", ts.URL+"/assign?customer=0", nil, &asg); code != 200 {
		t.Fatalf("assign = %d", code)
	}
	if asg.Customer != 0 || asg.FacilityNode < 0 {
		t.Fatalf("assign reply %+v", asg)
	}

	// Arrivals: new handles appear in the published view.
	inst := s.cfg.Instance
	var churn ChurnReply
	if code := call(t, "POST", ts.URL+"/arrivals",
		ArrivalsRequest{Nodes: []int32{inst.Customers[0], inst.Customers[1]}}, &churn); code != 200 {
		t.Fatalf("arrivals = %d", code)
	}
	if len(churn.Handles) != 2 {
		t.Fatalf("arrivals handles %v", churn.Handles)
	}
	for _, h := range churn.Handles {
		if code := call(t, "GET", fmt.Sprintf("%s/assign?customer=%d", ts.URL, h), nil, &asg); code != 200 {
			t.Fatalf("assign new handle %d = %d", h, code)
		}
	}

	// Departures remove them again.
	if code := call(t, "POST", ts.URL+"/departures",
		DeparturesRequest{Handles: churn.Handles}, &churn); code != 200 {
		t.Fatalf("departures = %d", code)
	}
	if code := call(t, "GET", fmt.Sprintf("%s/assign?customer=%d", ts.URL, churn.Handles[0]), nil, nil); code != 404 {
		t.Fatalf("departed handle still assigned: %d", code)
	}

	// Resolve through a registry algorithm.
	var rr ResolveReply
	if code := call(t, "POST", ts.URL+"/resolve", ResolveRequest{Algorithm: "uf"}, &rr); code != 200 {
		t.Fatalf("resolve = %d", code)
	}
	if rr.Algorithm != "uf" || rr.Objective <= 0 {
		t.Fatalf("resolve reply %+v", rr)
	}

	// Stats reflect the traffic.
	var st StatsReply
	if code := call(t, "GET", ts.URL+"/stats", nil, &st); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if st.Customers != s.View().Customers() || st.Objective != s.Objective() {
		t.Fatalf("stats %+v out of sync with view", st)
	}
	if st.Endpoints["arrivals"].Count == 0 || st.Endpoints["assign"].P99NS < 0 {
		t.Fatalf("endpoint latency missing: %+v", st.Endpoints)
	}
	if st.Batches == 0 || st.BatchedOps < st.Batches {
		t.Fatalf("batch counters %d/%d", st.Batches, st.BatchedOps)
	}
}

func TestServeErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
		code   string
	}{
		{"unknown handle", "GET", "/assign?customer=99999", nil, 404, "unknown_handle"},
		{"bad handle", "GET", "/assign?customer=x", nil, 400, "bad_request"},
		{"bad node", "POST", "/arrivals", ArrivalsRequest{Nodes: []int32{-4}}, 400, "bad_node"},
		{"empty arrivals", "POST", "/arrivals", ArrivalsRequest{}, 400, "bad_request"},
		{"unknown departure", "POST", "/departures", DeparturesRequest{Handles: []int{99999}}, 404, "unknown_handle"},
		{"unknown algorithm", "POST", "/resolve", ResolveRequest{Algorithm: "gurobi"}, 400, "bad_request"},
		{"oversize exhaustive", "POST", "/resolve", ResolveRequest{Algorithm: "exhaustive"}, 413, "too_large"},
	}
	for _, tc := range cases {
		var body struct {
			Code  string `json:"code"`
			Error string `json:"error"`
		}
		got := call(t, tc.method, ts.URL+tc.path, tc.body, &body)
		if got != tc.want || body.Code != tc.code {
			t.Errorf("%s: status %d code %q, want %d %q (%s)", tc.name, got, body.Code, tc.want, tc.code, body.Error)
		}
		if body.Error == "" {
			t.Errorf("%s: empty error detail", tc.name)
		}
	}
}

// TestServeChurnAllOrNothing: a refused write changes nothing. A
// /departures body that names a customer twice, or an unknown one after
// a live one, keeps the live customers it names. An /arrivals body of
// 51 customers at one node drift-re-solves the selection on the way and
// then overflows every seat (8 facilities of capacity 10 hold 80); the
// request is refused, and the selection it re-solved goes with it. In
// every case the published population and objective do not move.
func TestServeChurnAllOrNothing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var before StatsReply
	if code := call(t, "GET", ts.URL+"/stats", nil, &before); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	surge := `{"nodes":[150` + strings.Repeat(",150", 50) + `]}`
	for _, tc := range []struct {
		path, body string
		want       int
		code       string
	}{
		{"/arrivals", surge, 422, "infeasible"},
		{"/departures", `{"handles":[5,5]}`, 400, "bad_request"},
		{"/departures", `{"handles":[6,99999]}`, 404, "unknown_handle"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want || body.Code != tc.code {
			t.Errorf("%s %.40s: status %d code %q, want %d %q (%s)", tc.path, tc.body, resp.StatusCode, body.Code, tc.want, tc.code, body.Error)
		}
		var after StatsReply
		if code := call(t, "GET", ts.URL+"/stats", nil, &after); code != 200 {
			t.Fatalf("stats = %d", code)
		}
		if after.Customers != before.Customers || after.Objective != before.Objective {
			t.Errorf("%s %.40s: customers %d → %d, objective %d → %d; a refused request must change nothing",
				tc.path, tc.body, before.Customers, after.Customers, before.Objective, after.Objective)
		}
	}
	for _, h := range []int{5, 6} {
		if code := call(t, "GET", fmt.Sprintf("%s/assign?customer=%d", ts.URL, h), nil, nil); code != 200 {
			t.Errorf("customer %d named by a refused departure: /assign = %d, want 200", h, code)
		}
	}
}

// TestServeBodyCap: a POST body one byte over maxBody is refused with
// 413 too_large on every write endpoint and changes nothing, and the
// same body at exactly maxBody parses and is applied. Each body is a
// valid request padded with whitespace to its size.
func TestServeBodyCap(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	before := s.View()
	padded := func(body string, size int) string {
		return body[:len(body)-1] + strings.Repeat(" ", size-len(body)) + "}"
	}
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	arrive := fmt.Sprintf(`{"nodes":[%d]}`, before.Nodes[0])
	depart := fmt.Sprintf(`{"handles":[%d]}`, before.Handles[0])
	resolve := `{"algorithm":"wma"}`
	for _, tc := range []struct{ path, body string }{
		{"/arrivals", arrive}, {"/departures", depart}, {"/resolve", resolve},
	} {
		body := padded(tc.body, maxBody+1)
		code, raw := post(tc.path, body)
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil || code != http.StatusRequestEntityTooLarge || e.Code != "too_large" {
			t.Errorf("%s with a %d-byte body: status %d, body %q (%v); want 413 too_large", tc.path, len(body), code, raw, err)
		}
		after := s.View()
		if after.Objective != before.Objective || !slices.Equal(after.Handles, before.Handles) ||
			!slices.Equal(after.Assignment, before.Assignment) || !slices.Equal(after.Selected, before.Selected) {
			t.Fatalf("%s: an oversized body changed the published view", tc.path)
		}
	}

	code, raw := post("/arrivals", padded(arrive, maxBody))
	var churn ChurnReply
	if err := json.Unmarshal(raw, &churn); err != nil || code != http.StatusOK || len(churn.Handles) != 1 {
		t.Fatalf("/arrivals at the cap: status %d, body %.200q (%v)", code, raw, err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/departures", padded(fmt.Sprintf(`{"handles":[%d]}`, churn.Handles[0]), maxBody)},
		{"/resolve", padded(resolve, maxBody)},
	} {
		if code, raw := post(tc.path, tc.body); code != http.StatusOK {
			t.Errorf("%s at the cap: status %d, body %.200q", tc.path, code, raw)
		}
	}
}

func TestServeSnapshotRestart(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	inst := s.cfg.Instance
	var churn ChurnReply
	if code := call(t, "POST", ts.URL+"/arrivals",
		ArrivalsRequest{Nodes: inst.Customers[:3]}, &churn); code != 200 {
		t.Fatalf("arrivals = %d", code)
	}
	if code := call(t, "POST", ts.URL+"/departures",
		DeparturesRequest{Handles: churn.Handles[:1]}, &churn); code != 200 {
		t.Fatalf("departures = %d", code)
	}
	want := s.Objective()

	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	snap, err := mcfs.ReadReallocatorSnapshot(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	restarted, err := New(Config{Instance: inst, Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if got := restarted.Objective(); got != want {
		t.Fatalf("restarted objective %d, want %d", got, want)
	}
	if restarted.View().Customers() != s.View().Customers() {
		t.Fatalf("restarted customers %d, want %d", restarted.View().Customers(), s.View().Customers())
	}
}

// TestServeConcurrentChurn hammers the server with concurrent readers
// and writers; under -race this exercises the publish/swap read path
// against the batching writer.
func TestServeConcurrentChurn(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	inst := s.cfg.Instance

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Writers: each admits customers then removes them again.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				node := inst.Customers[(w*8+i)%len(inst.Customers)]
				var churn ChurnReply
				if code := call(t, "POST", ts.URL+"/arrivals",
					ArrivalsRequest{Nodes: []int32{node}}, &churn); code != 200 {
					errs <- fmt.Errorf("writer %d: arrivals status %d", w, code)
					return
				}
				if code := call(t, "POST", ts.URL+"/departures",
					DeparturesRequest{Handles: churn.Handles}, &churn); code != 200 {
					errs <- fmt.Errorf("writer %d: departures status %d", w, code)
					return
				}
			}
		}(w)
	}
	// Readers: resolve random handles and poll stats; 404 is a valid
	// outcome for a handle that already departed.
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				code := call(t, "GET", fmt.Sprintf("%s/assign?customer=%d", ts.URL, i%40), nil, nil)
				if code != 200 && code != 404 {
					errs <- fmt.Errorf("reader %d: assign status %d", rdr, code)
					return
				}
				if i%10 == 0 {
					if code := call(t, "GET", ts.URL+"/stats", nil, nil); code != 200 {
						errs <- fmt.Errorf("reader %d: stats status %d", rdr, code)
						return
					}
				}
			}
		}(rdr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All churn is symmetric: the population is back to the baseline.
	pub := s.View()
	if got := pub.Customers(); got != len(inst.Customers) {
		t.Fatalf("population %d after symmetric churn, want %d", got, len(inst.Customers))
	}
	// Whatever order the writers' batches ran in, the published
	// assignment must be valid for the published population and optimal
	// for its selection: the min-cost value for a fixed selection is
	// unique.
	now := &mcfs.Instance{G: inst.G, Customers: pub.Nodes, Facilities: inst.Facilities, K: inst.K}
	served := &mcfs.Solution{Selected: pub.Selected, Assignment: pub.Assignment, Objective: pub.Objective}
	if _, err := now.CheckSolution(served); err != nil {
		t.Fatalf("published assignment after concurrent churn: %v", err)
	}
	best, err := mcfs.AssignToSelection(now, pub.Selected)
	if err != nil {
		t.Fatal(err)
	}
	if best.Objective != pub.Objective {
		t.Fatalf("published objective %d, but the optimal assignment to its selection costs %d", pub.Objective, best.Objective)
	}
}

// TestServeDriftResolve: the Reallocator's inline drift re-solve is
// the serving drift policy. One request that doubles the population
// lifts the objective far past 1.2× the baseline; the arrivals that
// cross the factor re-solve inside that request, so it answers 200 and
// the published objective ends within the factor of the baseline that
// the last re-solve set.
func TestServeDriftResolve(t *testing.T) {
	const factor = 1.2
	s, ts := newTestServer(t, Config{DriftFactor: factor})
	inst := s.cfg.Instance

	var churn ChurnReply
	if code := call(t, "POST", ts.URL+"/arrivals",
		ArrivalsRequest{Nodes: inst.Customers}, &churn); code != 200 {
		t.Fatalf("arrivals = %d", code)
	}
	if len(churn.Handles) != len(inst.Customers) {
		t.Fatalf("%d handles for %d arrivals", len(churn.Handles), len(inst.Customers))
	}

	var st StatsReply
	if code := call(t, "GET", ts.URL+"/stats", nil, &st); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if st.Customers != 2*len(inst.Customers) {
		t.Fatalf("stats customers %d, want %d", st.Customers, 2*len(inst.Customers))
	}
	// One full solve is New's; any more ran inside the request.
	if st.Reallocator.FullSolves < 2 {
		t.Fatalf("full_solves %d after doubling the population: no drift re-solve", st.Reallocator.FullSolves)
	}
	// The Reallocator re-solves when objective > factor × base + 0.5.
	if float64(st.Objective) > factor*float64(st.BaseObjective)+0.5 {
		t.Fatalf("drift %.3f (objective %d, base %d) past the factor %v", st.Drift, st.Objective, st.BaseObjective, factor)
	}
	if !regexpMustFindPositive(t, scrapeMetrics(t, ts.URL), "mcfs_realloc_full_solves_total") {
		t.Error("mcfs_realloc_full_solves_total still zero after drift re-solves")
	}
}

func TestServeConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := New(Config{Instance: testInstance(t), Algorithm: "bogus"}); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bogus algorithm: %v", err)
	}
}

func TestServeMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Drive some solver work so the counters are nonzero.
	var churn ChurnReply
	inst := testInstance(t)
	if code := call(t, "POST", ts.URL+"/arrivals",
		ArrivalsRequest{Nodes: []int32{inst.Customers[0]}}, &churn); code != 200 {
		t.Fatalf("arrivals = %d", code)
	}
	if code := call(t, "GET", ts.URL+"/stats", nil, nil); code != 200 {
		t.Fatalf("stats = %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// The three families the PR promises: solver work counters, batch
	// counters, request latency histograms.
	for _, want := range []string{
		"mcfs_sspa_augmenting_paths_total",
		"mcfs_dijkstra_heap_pops_total",
		"mcfsd_batches_total",
		"mcfsd_batched_ops_total",
		"mcfsd_queue_depth",
		`mcfsd_request_duration_seconds_bucket{endpoint="arrivals",le="+Inf"}`,
		`mcfsd_request_duration_seconds_count{endpoint="arrivals"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Every line must be a comment or "name[{labels}] value" with a
	// numeric value — the same shape the ci.sh awk smoke enforces.
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seen++
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("non-numeric value in line %q: %v", line, err)
		}
	}
	if seen == 0 {
		t.Fatal("exposition has no samples")
	}

	// The arrivals above ran solver work: at least one augmenting path
	// must have been recorded.
	if !regexpMustFindPositive(t, body, "mcfs_sspa_augmenting_paths_total") {
		t.Errorf("sspa_augmenting_paths_total still zero after arrivals:\n%s", body)
	}
}

// scrapeMetrics fetches /metrics and fails the test on transport or
// status errors.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// assertExpositionShape fails on any line that is not a comment or
// "name[{labels}] value" with a numeric value — the same shape the
// ci.sh awk smoke enforces.
func assertExpositionShape(t *testing.T, body string) {
	t.Helper()
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seen++
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("non-numeric value in line %q: %v", line, err)
		}
	}
	if seen == 0 {
		t.Fatal("exposition has no samples")
	}
}

// metricValue extracts the value of an unlabelled metric from the
// exposition.
func metricValue(t *testing.T, body, metric string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, metric+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, metric+" "), 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s absent", metric)
	return 0
}

// TestServeMetricsUnderConcurrentLoad hammers the read and write paths
// while scraping /metrics: every scrape must stay parseable, and the
// cumulative counters must be monotone non-decreasing between scrapes
// (a scrape observing a counter going backwards means the exposition
// reads state non-atomically enough to lie). Run under -race this also
// exercises every handler against the scraper.
func TestServeMetricsUnderConcurrentLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	inst := s.cfg.Instance

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	// Churn writers: symmetric arrivals/departures until told to stop.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				node := inst.Customers[(w*7+i)%len(inst.Customers)]
				var churn ChurnReply
				if code := call(t, "POST", ts.URL+"/arrivals",
					ArrivalsRequest{Nodes: []int32{node}}, &churn); code != 200 {
					errs <- fmt.Errorf("writer %d: arrivals status %d", w, code)
					return
				}
				if code := call(t, "POST", ts.URL+"/departures",
					DeparturesRequest{Handles: churn.Handles}, &churn); code != 200 {
					errs <- fmt.Errorf("writer %d: departures status %d", w, code)
					return
				}
			}
		}(w)
	}
	// Assign readers: the satellite's target endpoint; 404 is fine for
	// a handle that already departed.
	for rdr := 0; rdr < 3; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code := call(t, "GET", fmt.Sprintf("%s/assign?customer=%d", ts.URL, i%64), nil, nil)
				if code != 200 && code != 404 {
					errs <- fmt.Errorf("reader %d: assign status %d", rdr, code)
					return
				}
			}
		}(rdr)
	}

	monotone := []string{
		"mcfs_sspa_augmenting_paths_total",
		"mcfs_dijkstra_heap_pops_total",
		"mcfsd_batches_total",
		"mcfsd_batched_ops_total",
	}
	prev := make(map[string]float64, len(monotone))
	for i := 0; i < 25; i++ {
		body := scrapeMetrics(t, ts.URL)
		assertExpositionShape(t, body)
		for _, name := range monotone {
			v := metricValue(t, body, name)
			if v < prev[name] {
				t.Errorf("scrape %d: %s went backwards: %v -> %v", i, name, prev[name], v)
			}
			prev[name] = v
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if prev["mcfsd_batches_total"] == 0 {
		t.Error("no batches observed during the load test")
	}
}

// regexpMustFindPositive reports whether the exposition carries a
// strictly positive value for the given metric name.
func regexpMustFindPositive(t *testing.T, body, metric string) bool {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, metric+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, metric+" "), 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		return v > 0
	}
	t.Fatalf("metric %s absent", metric)
	return false
}

func TestServeHealthzBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var hz HealthzReply
	if code := call(t, "GET", ts.URL+"/healthz", nil, &hz); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if hz.Status != "ok" {
		t.Fatalf("healthz status %q", hz.Status)
	}
	if !strings.HasPrefix(hz.GoVersion, "go") {
		t.Fatalf("healthz go_version %q", hz.GoVersion)
	}
	if hz.VCSRevision == "" {
		t.Fatal("healthz vcs_revision empty (want a revision or \"unknown\")")
	}
	if hz.UptimeSeconds < 0 {
		t.Fatalf("healthz uptime %f", hz.UptimeSeconds)
	}
}

func TestServeStatsQueueDepth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var st StatsReply
	if code := call(t, "GET", ts.URL+"/stats", nil, &st); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	// An idle server publishes with an empty queue; the field must be
	// present and sane (the JSON decode above proves presence via the
	// struct round-trip, this pins the value).
	if st.QueueDepth != 0 {
		t.Fatalf("idle queue depth %d", st.QueueDepth)
	}
	if st.BatchedOps < st.Batches {
		t.Fatalf("batched_ops %d < batches %d", st.BatchedOps, st.Batches)
	}
}

func TestServeRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	_, ts := newTestServer(t, Config{Logger: logger})

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id1 := resp.Header.Get("X-Request-Id")
	if id1 == "" {
		t.Fatal("missing X-Request-Id header")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id2 := resp.Header.Get("X-Request-Id")
	if id1 == id2 {
		t.Fatalf("request ids not unique: %s / %s", id1, id2)
	}

	mu.Lock()
	logs := buf.String()
	mu.Unlock()
	for _, want := range []string{"msg=request", "path=/stats", "path=/healthz", "status=200", "duration="} {
		if !strings.Contains(logs, want) {
			t.Errorf("request log missing %q:\n%s", want, logs)
		}
	}
}

// lockedWriter serializes concurrent log writes in tests.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
