package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"time"

	"mcfs"
	"mcfs/internal/obs"
	"mcfs/internal/serve"
)

// Serve workload sizes. An epoch is one fresh server taken through the
// whole script; epochs repeat until the run's time is used, and every
// epoch must do identical work.
const (
	churnRequests = 600                // ≈120 departures, about 3 s
	tideRounds    = 50                 // about 4 s; amortizes the one drift re-solve
	tideSurge     = budgetK * capC / 5 // 204 arrivals lift occupancy from 0.50 to 0.70
)

// serveWorkload is a serve workload's request stream and the endpoint
// whose CPU time per request op_cpu_ms_* reports.
type serveWorkload struct {
	script func(seed int64, pool []int32) []request
	timed  kind
}

var serveWorkloads = map[string]serveWorkload{
	"serve-churn": {func(seed int64, pool []int32) []request {
		return churnScript(seed+23, churnRequests, baseM, pool)
	}, depart},
	"serve-tide": {func(seed int64, pool []int32) []request {
		return tideScript(instanceSeed+29, seed+29, tideRounds, tideSurge, baseM, pool)
	}, arrive},
}

// epoch is the record of one fresh server taken through the script.
type epoch struct {
	setup     time.Duration   // CPU time to build the instance and the server
	peakRSS   float64         // peak resident set from set-up to the last request, MB
	lat       []time.Duration // wall time per request sent, in script order
	cpu       []time.Duration // CPU time per request sent, in script order
	loopCPU   time.Duration   // CPU time of the request loop
	failed    int
	objective int64
	stats     serve.StatsReply
	counters  map[string]int64
	rt        runtimeStats
	problems  []string
}

// runEpoch builds the instance and a server with the healer and snapshot
// policies off and default batching, and sends the script from one
// closed-loop client straight into the handler, with no socket. prof,
// when non-nil, profiles the request loop.
func runEpoch(script []request, prof *profiler) (*epoch, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	start := cpuNow()
	inst, _, err := tableIV()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Instance: inst})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	defer srv.Close()
	e := &epoch{setup: cpuNow() - start}
	h := srv.Handler()
	reqs := make([]*http.Request, len(script))
	for i, r := range script {
		reqs[i] = r.httpRequest()
	}

	if err := prof.start(); err != nil {
		return nil, err
	}
	before := readRuntime()
	start = cpuNow()
	for i, r := range script {
		w := httptest.NewRecorder()
		t, c := time.Now(), cpuNow()
		h.ServeHTTP(w, reqs[i])
		e.cpu = append(e.cpu, cpuNow()-c)
		e.lat = append(e.lat, time.Since(t))
		if err := r.checkReply(w); err != nil {
			// The script's handle predictions no longer hold; stop here.
			e.failed++
			e.problems = append(e.problems, fmt.Sprintf("request %d: %v", i, err))
			break
		}
	}
	e.loopCPU = cpuNow() - start
	e.rt = before.since()
	if e.peakRSS, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if err := prof.stop(); err != nil {
		return nil, err
	}

	view := srv.View()
	e.objective = view.Objective
	if err := checkPublished(inst, view); err != nil {
		e.problems = append(e.problems, err.Error())
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &e.stats); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	e.counters = workCounters(srv.Recorder())
	e.counters["full_solves"] = int64(e.stats.Reallocator.FullSolves)
	return e, nil
}

func (r request) httpRequest() *http.Request {
	var body any
	switch r.kind {
	case assign:
		return httptest.NewRequest(http.MethodGet, "/assign?customer="+strconv.Itoa(r.handles[0]), nil)
	case arrive:
		body = serve.ArrivalsRequest{Nodes: []int32{r.node}}
	default:
		body = serve.DeparturesRequest{Handles: r.handles}
	}
	b, _ := json.Marshal(body) // structs of integers always marshal
	return httptest.NewRequest(http.MethodPost, r.kind.String(), bytes.NewReader(b))
}

// checkReply verifies a reply: status 200, naming the customers the
// script predicted.
func (r request) checkReply(w *httptest.ResponseRecorder) error {
	if w.Code != http.StatusOK {
		return fmt.Errorf("%v: status %d: %s", r.kind, w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	var got []int
	if r.kind == assign {
		var reply serve.AssignReply
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			return fmt.Errorf("%v: %w", r.kind, err)
		}
		got = []int{reply.Customer}
	} else {
		var reply serve.ChurnReply
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			return fmt.Errorf("%v: %w", r.kind, err)
		}
		got = reply.Handles
	}
	if !slices.Equal(got, r.handles) {
		return fmt.Errorf("%v: reply names customers %v, want %v", r.kind, got, r.handles)
	}
	return nil
}

// replayed is the script's writes applied straight to a Reallocator, in
// order, each followed by Publish as the serve batch loop does after
// every batch.
type replayed struct {
	objective int64
	apply     []time.Duration // AddCustomer, or the RemoveCustomer calls, per request
	publish   []time.Duration // the Publish after it; a departure's rebuild runs here
	total     time.Duration
	rec       *obs.Recorder // the replay's recorder, if it carried one
}

func replay(ctx context.Context, inst *mcfs.Instance, script []request) (*replayed, error) {
	r, err := mcfs.NewReallocatorCtx(ctx, inst, 0)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	p := &replayed{apply: make([]time.Duration, len(script)), publish: make([]time.Duration, len(script))}
	start := time.Now()
	for i, req := range script {
		t := time.Now()
		switch req.kind {
		case assign:
			continue
		case arrive:
			h, err := r.AddCustomer(req.node)
			if err != nil {
				return nil, fmt.Errorf("replay request %d: %w", i, err)
			}
			if h != req.handles[0] {
				return nil, fmt.Errorf("replay request %d: handle %d, want %d", i, h, req.handles[0])
			}
		case depart:
			for _, h := range req.handles {
				if err := r.RemoveCustomer(h); err != nil {
					return nil, fmt.Errorf("replay request %d: %w", i, err)
				}
			}
		}
		t1 := time.Now()
		pub, err := r.Publish()
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", i, err)
		}
		p.apply[i], p.publish[i] = t1.Sub(t), time.Since(t1)
		p.objective = pub.Objective
	}
	p.total = time.Since(start)
	return p, nil
}

// runServe runs a serve workload: epochs until the time is used, then a
// direct-Reallocator replay of the script that the served objective must
// match. A traced run pairs every epoch with replays instead (see
// traceServe) and makes at least tracedEpochs of them.
func runServe(cfg config, name string) (*outcome, error) {
	w := serveWorkloads[name]
	inst, pool, err := tableIV()
	if err != nil {
		return nil, err
	}
	script := w.script(cfg.seed, pool)
	var prof *profiler
	minEpochs := 1
	if cfg.trace {
		prof = &profiler{}
		minEpochs = tracedEpochs
	}
	var epochs []*epoch
	var plain, traced []*replayed
	// The reference kernel runs after each epoch, outside the request
	// loop, so its samples span the same minutes as the requests.
	ref := newReference()
	start := time.Now()
	for len(epochs) < minEpochs || time.Since(start) < cfg.seconds {
		e, err := runEpoch(script, prof)
		if err != nil {
			return nil, err
		}
		epochs = append(epochs, e)
		if e.failed > 0 {
			break
		}
		for i := 0; i < refSamples; i++ {
			ref.sample()
		}
		if !cfg.trace {
			continue
		}
		// An untraced and a traced replay follow each epoch, in
		// alternating order, so that a drift in host speed touches the
		// epoch and its replays alike and cancels in the overhead.
		for j := 0; j < 2; j++ {
			if (len(epochs)+j)%2 == 0 {
				p, err := replay(context.Background(), inst, script)
				if err != nil {
					return nil, err
				}
				plain = append(plain, p)
			} else {
				rec := obs.New()
				p, err := replay(obs.WithRecorder(context.Background(), rec), inst, script)
				if err != nil {
					return nil, err
				}
				p.rec = rec
				traced = append(traced, p)
			}
		}
	}
	first := epochs[0]
	out := &outcome{counters: first.counters}
	for i, e := range epochs {
		out.attempted += len(e.lat)
		out.failed += e.failed
		out.problems = append(out.problems, e.problems...)
		if e.objective != first.objective || !maps.Equal(e.counters, first.counters) {
			out.problem("epoch %d ended at objective %d with counters %v; epoch 0 at %d with %v",
				i, e.objective, e.counters, first.objective, first.counters)
		}
	}
	if !cfg.trace {
		p, err := replay(context.Background(), inst, script)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
	}
	for _, p := range append(plain, traced...) {
		if p.objective != first.objective {
			out.problem("served objective %d, direct Reallocator replay %d", first.objective, p.objective)
		}
	}
	if want, ok := recorded[name][cfg.seed]; ok && want != first.objective {
		out.problem("objective %d, recorded %d", first.objective, want)
	}
	if cfg.trace {
		return traceServe(cfg, name, out, script, epochs, plain, traced, prof, ref)
	}

	var setups, timed, rss []float64
	writes, loop := 0, time.Duration(0)
	for _, e := range epochs {
		setups = append(setups, e.setup.Seconds())
		rss = append(rss, e.peakRSS)
		loop += e.loopCPU
		for i, d := range e.cpu {
			if script[i].kind != assign {
				writes++
			}
			if script[i].kind == w.timed {
				timed = append(timed, ms(d))
			}
		}
	}
	x := ref.scale()
	ref.report()
	out.metrics = map[string]metric{
		"setup_s":       {percentile(setups, 0.5) * x, "s"},
		"op_cpu_ms_p50": {percentile(timed, 0.5) * x, "ms"},
		"op_cpu_ms_p90": {percentile(timed, 0.9) * x, "ms"},
		"ops_per_cpu_s": {float64(writes) / loop.Seconds() / x, "1/s"},
		"objective":     {float64(first.objective), "distance"},
		"peak_rss_mb":   {percentile(rss, 0.5), "MB"},
	}
	return out, nil
}

// tracedEpochs is the fewest epochs a traced serve run makes, so that
// every per-request figure is a median over at least that many pairs.
const tracedEpochs = 3

// traceServe completes a serve workload's traced run. The epochs ran
// under the CPU profiler, each followed by an untraced replay (plain) and
// one with a fresh recorder (traced). An arrival's serve self time is its
// handler time minus the untraced replay's AddCustomer and Publish time
// for the same arrival, taken per epoch and paired replay. Every
// per-request figure is the median over the pairs, and a metric is the
// percentile of those over the script's requests.
//
// Departures get no self time: the handler's departure runs about 1 ms
// faster than the replay's RemoveCustomer and Publish of the same
// departure, on every seed, so the difference would measure the two
// runs' heap state, not the few microseconds serve adds to a 19 ms
// rebuild.
func traceServe(cfg config, name string, out *outcome, script []request,
	epochs []*epoch, plain, traced []*replayed, prof *profiler, ref *reference) (*outcome, error) {
	first := epochs[0]
	l := &layers{prof: prof, work: first.counters, refMs: ref.ms()}
	var spans []*obs.Span
	var iterations int64
	for _, t := range traced {
		s := t.rec.Spans()
		spans = append(spans, s...)
		l.solves = append(l.solves, coreSplits(s)...)
		iterations += t.rec.Counter(obs.WMAIterations)
	}
	pairs := min(len(epochs), len(plain))
	overPairs := func(f func(k int) float64) float64 {
		xs := make([]float64, pairs)
		for k := range xs {
			xs[k] = f(k)
		}
		return percentile(xs, 0.5)
	}
	writes, departures := 0, 0
	for i, r := range script {
		apply := func(k int) time.Duration { return plain[k].apply[i] }
		publish := func(k int) time.Duration { return plain[k].publish[i] }
		switch r.kind {
		case assign:
			for _, e := range epochs {
				l.assignUs = append(l.assignUs, us(e.lat[i]))
			}
		case arrive:
			writes++
			l.add = append(l.add, overPairs(func(k int) float64 { return us(apply(k)) }))
			l.publish = append(l.publish, overPairs(func(k int) float64 { return us(publish(k)) }))
			l.selfArrivals = append(l.selfArrivals, overPairs(func(k int) float64 { return us(epochs[k].lat[i] - apply(k) - publish(k)) }))
		case depart:
			writes++
			departures++
			l.rebuild = append(l.rebuild, overPairs(func(k int) float64 { return ms(publish(k)) }))
		}
	}
	for _, e := range epochs {
		l.rt = l.rt.plus(e.rt)
		l.ops += float64(writes)
	}
	l.perOp = float64(writes)
	l.iterations = ratio(float64(iterations), float64(len(l.solves)))
	l.reroutedPerDeparture = ratio(float64(first.counters["realloc_rerouted_customers"]), float64(departures))
	l.fullSolves = float64(first.stats.Reallocator.FullSolves - 1) // the first is serve.New's
	l.batchOpsMean = ratio(float64(first.stats.BatchedOps), float64(first.stats.Batches))
	l.overheadPct = overheadPct(len(traced), func(k int) (time.Duration, time.Duration) {
		return traced[k].total, plain[k].total
	})
	out.metrics = l.metrics()
	return out, writeSpans(name, cfg.seed, spans)
}
