package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcfs"
	"mcfs/internal/dynamic"
	"mcfs/internal/obs"
)

// serveHTTP sends one request straight into the handler (no socket) and
// returns the recorded response.
func serveHTTP(ctx context.Context, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)).WithContext(ctx))
	return rec
}

// holdWriter starts an exact /resolve whose request deadline is d and
// returns once its search holds the writer; the returned channel yields
// the resolve's response.
func holdWriter(t *testing.T, s *Server, d time.Duration) <-chan *httptest.ResponseRecorder {
	t.Helper()
	done := make(chan *httptest.ResponseRecorder, 1)
	//lint:ignore nakedgoroutine every caller receives the resolve's response from the returned channel
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		done <- serveHTTP(ctx, s.Handler(), "POST", "/resolve", `{"algorithm":"exact"}`)
	}()
	waitFor(t, "the exact search to hold the writer", func() bool { return s.rec.Counter(obs.BnBNodesExpanded) > 0 })
	return done
}

// TestServeWriteAfterClose: once Close has taken the writer, nobody
// applies a write again, so a write still queued when the server closes
// and every write sent afterwards is withdrawn and fails at once with
// 503 shutting_down, never waiting out its own deadline.
func TestServeWriteAfterClose(t *testing.T) {
	s, err := New(Config{Instance: testInstance(t), DefaultTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	node := s.cfg.Instance.Customers[0]

	// A departure queued behind a 500 ms resolve, with 5 s to live.
	resolved := holdWriter(t, s, 500*time.Millisecond)
	queued := make(chan error, 1)
	go func() {
		_, err := s.do(context.Background(), op{kind: opDepartures, handles: []int{3}})
		queued <- err
	}()
	waitFor(t, "the departure to queue", func() bool { return len(s.ops) == 1 })
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case err := <-queued:
		if !errors.Is(err, errShutdown) {
			t.Fatalf("departure queued at Close: %v, want %v", err, errShutdown)
		}
	case <-resolved:
		t.Fatal("the resolve holding the writer answered before the departure queued behind it was withdrawn")
	}
	<-closed
	if rec := <-resolved; rec.Code != http.StatusOK {
		t.Fatalf("resolve holding the writer at Close = %d %s", rec.Code, rec.Body)
	}

	// Writes sent after Close, each with a 50 ms deadline.
	h := s.Handler()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		rec := serveHTTP(ctx, h, "POST", "/arrivals", fmt.Sprintf(`{"nodes":[%d]}`, node))
		cancel()
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"shutting_down"`) {
			t.Fatalf("write %d after Close = %d %s after %v, want 503 shutting_down", i, rec.Code, rec.Body, time.Since(start))
		}
	}
}

// TestServeHolderWithdrawsEndedWrite: the goroutine holding the writer
// applies the ops queued ahead of its own, and its own request may end
// meanwhile. Here a departure's goroutine takes the writer with an exact
// resolve queued ahead of it; the resolve outlasts the departure's
// 200 ms deadline, so the departure must be withdrawn, not applied: it
// answers 504 and the customer it named is still served.
func TestServeHolderWithdrawsEndedWrite(t *testing.T) {
	s, _ := newTestServer(t, Config{DefaultTimeout: 5 * time.Second})
	w := <-s.slot // hold the writer while both ops queue
	// The resolve is queued with no goroutine competing for the writer
	// on its behalf, so the departure's goroutine is the one to take it.
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	resolve := op{kind: opResolve, algo: mcfs.AlgorithmExact, ctx: ctx, reply: make(chan opResult, 1), state: new(atomic.Int32)}
	s.ops <- resolve
	departed := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		departed <- serveHTTP(ctx, s.Handler(), "POST", "/departures", `{"handles":[3]}`)
	}()
	waitFor(t, "the departure to queue behind the resolve", func() bool { return len(s.ops) == 2 })
	s.slot <- w

	rec := <-departed
	select {
	case res := <-resolve.reply:
		if res.err != nil {
			t.Fatalf("resolve applied by the departure's goroutine: %v", res.err)
		}
	default:
		t.Fatalf("departure answered %d %s before the resolve queued ahead of it: it never held the writer", rec.Code, rec.Body)
	}
	if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), `"deadline"`) {
		t.Fatalf("departure whose request ended behind the resolve = %d %s, want 504 deadline", rec.Code, rec.Body)
	}
	if _, _, ok := s.View().Lookup(3); !ok {
		t.Fatal("customer 3 departed although its request had given up")
	}
	if got := s.batchedOps.Load(); got != 1 {
		t.Fatalf("%d batched ops, want 1: the resolve", got)
	}
}

// TestServeSnapshotWhileWriterHeld: a snapshot is a read of the
// published view and never waits for the writer. While an exact
// /resolve holds it, GET /snapshot answers 200 with the published view's
// snapshot, also under a 50 ms client deadline, and a tick of the
// snapshot loop persists that snapshot as a generation with no failure
// counted, all before the resolve answers.
func TestServeSnapshotWhileWriterHeld(t *testing.T) {
	fc := newFakeClock()
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{SnapshotEvery: time.Hour, SnapshotDir: dir, Clock: fc, DefaultTimeout: 5 * time.Second})
	tk := fc.ticker(t)
	h := s.Handler()
	want := serveHTTP(context.Background(), h, "GET", "/snapshot", "").Body.String()
	resolved := holdWriter(t, s, 2*time.Second)
	for _, d := range []time.Duration{0, 50 * time.Millisecond} {
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if d > 0 {
			ctx, cancel = context.WithTimeout(ctx, d)
		}
		rec := serveHTTP(ctx, h, "GET", "/snapshot", "")
		cancel()
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("snapshot with client deadline %v while the writer is held = %d %s, want 200 and the published view's snapshot", d, rec.Code, rec.Body)
		}
	}
	tk.tick()
	waitFor(t, "the tick's generation", func() bool { return s.rec.Counter(obs.ServeSnapshots) == 1 })
	if n := s.rec.Counter(obs.ServeSnapshotFailures); n != 0 {
		t.Fatalf("%d snapshot failures counted", n)
	}
	select {
	case rec := <-resolved:
		t.Fatalf("the resolve holding the writer answered %d before the snapshots did", rec.Code)
	default:
	}
	if rec := <-resolved; rec.Code != http.StatusOK {
		t.Fatalf("exact resolve = %d %s", rec.Code, rec.Body)
	}
	files := generationFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("generation files %v, want one", files)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, files[0])); err != nil || string(raw) != want {
		t.Fatalf("persisted generation %q (%v), want the published view's snapshot %q", raw, err, want)
	}
}

// TestServeQueueFullOfWithdrawn: an op whose request gave up stays in
// the queue until a holder of the writer skips it, and nobody drains the
// ones queued behind the last holder's own op. A write that finds the
// queue full of them takes the writer and skips a batch of them to make
// room, so it is still applied.
func TestServeQueueFullOfWithdrawn(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	node := s.cfg.Instance.Customers[0]
	w := <-s.slot
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for len(s.ops) < cap(s.ops) {
		if _, err := s.do(gone, op{kind: opArrivals, nodes: []int32{node}}); !errors.Is(err, context.Canceled) {
			t.Fatalf("write under a cancelled context: %v", err)
		}
	}
	s.slot <- w
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if rec := serveHTTP(ctx, s.Handler(), "POST", "/arrivals", fmt.Sprintf(`{"nodes":[%d]}`, node)); rec.Code != http.StatusOK {
		t.Fatalf("arrival behind a full queue of withdrawn ops = %d %s", rec.Code, rec.Body)
	}
	if got := s.batchedOps.Load(); got != 1 {
		t.Fatalf("%d batched ops, want 1: the arrival", got)
	}
}

// TestServeWriterPanicEndsProcess: a panic while a request goroutine
// applies writes must end the process, as it would on a goroutine of its
// own. net/http recovers a handler's panic; a server that kept running
// without its writer would let every later write wait out its deadline
// and Close hang. The server runs in a child process of this test
// binary, behind a real net/http server, with a batch hook that panics.
func TestServeWriterPanicEndsProcess(t *testing.T) {
	if os.Getenv("MCFS_SERVE_PANIC_CHILD") == "1" {
		s, ts := newTestServer(t, Config{})
		s.onBatch = func([]op, []opResult) { panic("batch hook panic") }
		call(t, "POST", ts.URL+"/arrivals", ArrivalsRequest{Nodes: []int32{s.cfg.Instance.Customers[0]}}, nil)
		t.Fatal("the process survived a panic while applying a write")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	child := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestServeWriterPanicEndsProcess$")
	child.Env = append(os.Environ(), "MCFS_SERVE_PANIC_CHILD=1")
	out, err := child.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "panic: batch hook panic") {
		t.Fatalf("child serving a panicking write: %v, want exit status 2 with the panic\n%s", err, out)
	}
}

// TestServeExactResolveKeepsIncumbent: an exact /resolve whose search
// uses up the request deadline succeeds with its best incumbent, and
// that selection is adopted and published rather than dropped by an
// adoption under the spent deadline.
func TestServeExactResolveKeepsIncumbent(t *testing.T) {
	s, ts := newTestServer(t, Config{DefaultTimeout: 400 * time.Millisecond})
	var rr ResolveReply
	if code := call(t, "POST", ts.URL+"/resolve", ResolveRequest{Algorithm: "exact"}, &rr); code != http.StatusOK {
		t.Fatalf("exact resolve = %d", code)
	}
	var st StatsReply
	if code := call(t, "GET", ts.URL+"/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.Reallocator.Adoptions != 1 {
		t.Fatalf("adoptions %d after a successful resolve, want 1", st.Reallocator.Adoptions)
	}
	pub := s.View()
	if rr.Objective != pub.Objective {
		t.Fatalf("resolve answered objective %d, published %d", rr.Objective, pub.Objective)
	}
	inst := s.cfg.Instance
	now := &mcfs.Instance{G: inst.G, Customers: pub.Nodes, Facilities: inst.Facilities, K: inst.K}
	best, err := mcfs.AssignToSelection(now, pub.Selected)
	if err != nil {
		t.Fatal(err)
	}
	if best.Objective != pub.Objective {
		t.Fatalf("published objective %d, but its selection serves the population at %d", pub.Objective, best.Objective)
	}
}

// TestServeCoalescing: writes that queue while another request holds
// the writer are applied together. Eight single-customer arrivals wait
// behind an exact /resolve; once it is answered, the next holder applies
// all eight in one batch behind one publish.
func TestServeCoalescing(t *testing.T) {
	s, _ := newTestServer(t, Config{DefaultTimeout: 10 * time.Second})
	batches, ops := s.batches.Load(), s.batchedOps.Load()
	resolved := holdWriter(t, s, 500*time.Millisecond)

	h := s.Handler()
	codes := make(chan int, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"nodes":[%d]}`, s.cfg.Instance.Customers[i])
			codes <- serveHTTP(context.Background(), h, "POST", "/arrivals", body).Code
		}(i)
	}
	waitFor(t, "eight writes to queue", func() bool { return len(s.ops) == 8 })
	<-resolved
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("queued arrival = %d", code)
		}
	}
	if got := s.batches.Load() - batches; got != 2 {
		t.Errorf("%d batches, want 2: the resolve's, then one for the eight queued writes", got)
	}
	if got := s.batchedOps.Load() - ops; got != 9 {
		t.Errorf("%d batched ops, want 9", got)
	}
}

// queueDepths reads the queue depth from /stats and /metrics.
func queueDepths(t *testing.T, s *Server) (stats, metrics float64) {
	t.Helper()
	h := s.Handler()
	var st StatsReply
	if err := json.Unmarshal(serveHTTP(context.Background(), h, "GET", "/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return float64(st.QueueDepth), metricValue(t, serveHTTP(context.Background(), h, "GET", "/metrics", "").Body.String(), "mcfsd_queue_depth")
}

// TestServeQueueDepthCountsWaitingWrites: the queue depth counts the
// writes waiting when it is read. Eight arrivals queue behind an exact
// /resolve holding the writer; while they wait, /stats and /metrics both
// read 8, and once all have answered, 0.
func TestServeQueueDepthCountsWaitingWrites(t *testing.T) {
	s, _ := newTestServer(t, Config{DefaultTimeout: 10 * time.Second})
	resolved := holdWriter(t, s, 500*time.Millisecond)
	h := s.Handler()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"nodes":[%d]}`, s.cfg.Instance.Customers[i])
			if rec := serveHTTP(context.Background(), h, "POST", "/arrivals", body); rec.Code != http.StatusOK {
				t.Errorf("queued arrival = %d %s", rec.Code, rec.Body)
			}
		}(i)
	}
	waitFor(t, "eight writes to queue", func() bool { return len(s.ops) == 8 })
	if st, m := queueDepths(t, s); st != 8 || m != 8 {
		t.Fatalf("queue depth %v in /stats, %v in /metrics while 8 writes wait behind the writer, want 8", st, m)
	}
	<-resolved
	wg.Wait()
	if st, m := queueDepths(t, s); st != 0 || m != 0 {
		t.Fatalf("queue depth %v in /stats, %v in /metrics once every write answered, want 0", st, m)
	}
}

// TestServeQueueDepthSkipsWithdrawnWrites: a withdrawn write no longer
// waits, though it stays in the queue until a holder of the writer
// skips it. A /departures with a 50 ms deadline is withdrawn behind a
// 400 ms exact /resolve; once both have answered, the queue depth reads
// 0.
func TestServeQueueDepthSkipsWithdrawnWrites(t *testing.T) {
	s, _ := newTestServer(t, Config{DefaultTimeout: 400 * time.Millisecond})
	resolved := holdWriter(t, s, 5*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if rec := serveHTTP(ctx, s.Handler(), "POST", "/departures", `{"handles":[3]}`); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("departure behind a 400 ms resolve, with 50 ms to live = %d %s, want 504", rec.Code, rec.Body)
	}
	if rec := <-resolved; rec.Code != http.StatusOK {
		t.Fatalf("exact resolve = %d %s", rec.Code, rec.Body)
	}
	if len(s.ops) != 1 {
		t.Fatalf("%d ops queued, want the withdrawn departure; the test proves nothing", len(s.ops))
	}
	if st, m := queueDepths(t, s); st != 0 || m != 0 {
		t.Fatalf("queue depth %v in /stats, %v in /metrics with only a withdrawn write queued, want 0", st, m)
	}
}

// applied is one operation the writer applied and its result.
type applied struct {
	o   op
	res opResult
}

// requestID keys the id a linearizability client gives each request in
// its context. The op's context derives from the request's, so the
// record names the request behind every op.
type requestID struct{}

// sentRequest is one linearizability client request and its reply.
type sentRequest struct {
	kind  opKind
	read  bool // a GET /snapshot, which queues no op
	short bool // sent with a deadline of at most 2 ms
	reply string
}

// TestServeLinearizable checks the coalesced batches against a serial
// order. Eight clients send random arrivals, departures, occasional
// /resolve and /snapshot requests, with drift re-solves on; one request
// in six carries a deadline of 0 to 2 ms, so some writes are withdrawn
// before any holder of the writer takes them and some fail once taken.
// A hook records every batch in the order it was applied, with the ops
// it took and the view it published. Replaying that record through one
// plain Reallocator must give every op the handles and error it was
// answered with, and every op the objective its batch published; an op
// that failed on its ended context leaves the state it found, so the
// replay skips it. After each batch the replay's flat Publish and
// Snapshot must equal the view that batch published, flattened and
// captured only once every client has finished: a later batch that wrote
// into a frozen page fails here. The final view must be optimal for its
// selection, and every client write must be answered with what the
// record holds for its request, or a deadline for a short request the
// record does not hold. A /snapshot is a read of the published view: its
// reply must be the snapshot of the initial view or of a batch's view,
// and no older than the batch that applied its client's last write.
func TestServeLinearizable(t *testing.T) {
	const (
		clients = 8
		perCli  = 20
		drift   = 1.2
	)
	s, _ := newTestServer(t, Config{DriftFactor: drift, DefaultTimeout: 30 * time.Second})
	inst := s.cfg.Instance
	var mu sync.Mutex
	var record [][]applied
	views := []*dynamic.View{s.view.Load()} // the initial view, then one per batch
	s.onBatch = func(batch []op, results []opResult) {
		var b []applied
		for i, o := range batch {
			if o.state.Load() == opTaken {
				b = append(b, applied{o, results[i]})
			}
		}
		mu.Lock()
		record = append(record, b)
		views = append(views, s.view.Load())
		mu.Unlock()
	}

	h := s.Handler()
	pool := mcfs.LargestComponent(inst.G)
	sent := make([]sentRequest, clients*perCli)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := 0; i < perCli; i++ {
				id := c*perCli + i
				var kind opKind
				read := false
				method, path, body := "POST", "", ""
				switch p := rng.Intn(20); {
				case p == 0:
					kind, path, body = opResolve, "/resolve", `{"algorithm":"wma"}`
				case p == 1:
					read, method, path = true, "GET", "/snapshot"
				case p < 11:
					kind, path = opArrivals, "/arrivals"
					body = fmt.Sprintf(`{"nodes":[%d]}`, pool[rng.Intn(len(pool))])
				default:
					// Handles a little past the live range, so some
					// departures name a customer that is gone or never was.
					kind, path = opDepartures, "/departures"
					hs := []int{rng.Intn(80)}
					if rng.Intn(3) == 0 {
						if h2 := rng.Intn(80); h2 != hs[0] {
							hs = append(hs, h2)
						}
					}
					raw, _ := json.Marshal(DeparturesRequest{Handles: hs})
					body = string(raw)
				}
				ctx, cancel := context.WithValue(context.Background(), requestID{}, id), context.CancelFunc(func() {})
				short := rng.Intn(6) == 0
				if short {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3))*time.Millisecond)
				}
				rec := serveHTTP(ctx, h, method, path, body)
				cancel()
				if read {
					sent[id] = sentRequest{read: true, short: short, reply: fmt.Sprintf("%d %s", rec.Code, rec.Body)}
				} else {
					sent[id] = sentRequest{kind: kind, short: short, reply: replyKey(t, rec)}
				}
			}
		}(c)
	}
	wg.Wait()

	// Replay the record serially.
	r, err := mcfs.NewReallocator(inst, drift)
	if err != nil {
		t.Fatal(err)
	}
	snaps := []*mcfs.ReallocatorSnapshot{replaySnapshot(t, r, views[0], "the initial view")}
	recorded := make(map[int]string, len(sent)) // request id → reply its op was given
	batchOf := make(map[int]int, len(sent))     // request id → batch that applied its op
	failed := 0
	for bi, batch := range record {
		want := make([]opResult, len(batch))
		for i, a := range batch {
			if err := a.res.err; errors.Is(err, context.DeadlineExceeded) || errors.Is(err, mcfs.ErrTimeout) {
				if id := a.o.ctx.Value(requestID{}).(int); !sent[id].short {
					t.Fatalf("batch %d op %d (request %d) failed on its deadline, which was 30 s: %v", bi, i, id, err)
				}
				want[i] = a.res
				continue
			}
			want[i] = replayOp(t, r, inst, a.o)
		}
		obj, err := r.Objective()
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range batch {
			id := a.o.ctx.Value(requestID{}).(int)
			if !slices.Equal(a.res.handles, want[i].handles) || fmt.Sprint(a.res.err) != fmt.Sprint(want[i].err) {
				t.Fatalf("batch %d op %d (request %d, kind %d): answered handles %v error %v, serial replay gives %v, %v",
					bi, i, id, a.o.kind, a.res.handles, a.res.err, want[i].handles, want[i].err)
			}
			if a.res.objective != obj {
				t.Fatalf("batch %d op %d: answered objective %d, serial replay after the batch gives %d", bi, i, a.res.objective, obj)
			}
			if a.res.err != nil {
				failed++
			}
			if _, twice := recorded[id]; twice {
				t.Fatalf("batch %d op %d: request %d was applied twice", bi, i, id)
			}
			recorded[id] = recordedKey(a.res)
			batchOf[id] = bi
		}
		pub, err := r.Publish()
		if err != nil {
			t.Fatal(err)
		}
		if got := views[bi+1].Flatten(); !reflect.DeepEqual(got, pub) {
			t.Fatalf("the view batch %d published has changed, or never matched the serial replay:\nserved %+v\nreplay %+v", bi, got, pub)
		}
		snaps = append(snaps, replaySnapshot(t, r, views[bi+1], fmt.Sprintf("the view batch %d published", bi)))
	}

	// Snapshot replies, per client in the order it sent them.
	bodies := make([]string, len(snaps))
	for i, snap := range snaps {
		var b strings.Builder
		if err := snap.Write(&b); err != nil {
			t.Fatal(err)
		}
		bodies[i] = fmt.Sprintf("%d %s", http.StatusOK, b.String())
	}
	snapshots := 0
	for c := 0; c < clients; c++ {
		floor := 0 // index in bodies of the view of the client's last applied write
		for id := c * perCli; id < (c+1)*perCli; id++ {
			if !sent[id].read {
				if bi, ok := batchOf[id]; ok {
					floor = bi + 1
				}
				continue
			}
			snapshots++
			if !slices.Contains(bodies[floor:], sent[id].reply) {
				t.Fatalf("request %d: /snapshot answered %q, the snapshot of no view from %d of %d on", id, sent[id].reply, floor, len(bodies))
			}
		}
	}
	withdrawn := 0
	for id, req := range sent {
		key, ok := recorded[id]
		switch {
		case req.read: // checked against the views above
		case ok && key != req.reply:
			t.Fatalf("request %d (kind %d) answered %q, its recorded op %q", id, req.kind, req.reply, key)
		case !ok && (!req.short || req.reply != fmt.Sprintf("%d deadline", http.StatusGatewayTimeout)):
			t.Fatalf("request %d (kind %d, short %v) answered %q but was never applied", id, req.kind, req.short, req.reply)
		case !ok:
			withdrawn++
		}
	}
	t.Logf("%d ops in %d batches, %d failed, %d snapshots; %d withdrawn; %d full solves",
		len(recorded), len(record), failed, snapshots, withdrawn, r.Stats().FullSolves)
	if withdrawn == 0 || snapshots == 0 {
		t.Fatalf("%d withdrawn ops, %d snapshots: the mix never reached them", withdrawn, snapshots)
	}

	pub, err := r.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.View(), pub) {
		t.Fatalf("final view differs from the serial replay's:\nserved %+v\nreplay %+v", s.View(), pub)
	}
	now := &mcfs.Instance{G: inst.G, Customers: pub.Nodes, Facilities: inst.Facilities, K: inst.K}
	best, err := mcfs.AssignToSelection(now, pub.Selected)
	if err != nil {
		t.Fatal(err)
	}
	if best.Objective != pub.Objective {
		t.Fatalf("final objective %d, but its selection serves the population at %d", pub.Objective, best.Objective)
	}
}

// replaySnapshot requires the Snapshot of the served view v, taken only
// once every client has finished, to equal the replay's, and returns it.
func replaySnapshot(t *testing.T, r *mcfs.Reallocator, v *dynamic.View, what string) *mcfs.ReallocatorSnapshot {
	t.Helper()
	want, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the snapshot of %s has changed, or never matched the serial replay:\nserved %+v\nreplay %+v", what, got, want)
	}
	return want
}

// replayOp applies one recorded op to r with the serving semantics,
// written out serially: an arrival admits one customer, a departure
// removes all its handles or none, and a resolve adopts the selection
// its algorithm finds on the instance.
func replayOp(t *testing.T, r *mcfs.Reallocator, inst *mcfs.Instance, o op) opResult {
	t.Helper()
	switch o.kind {
	case opArrivals:
		if len(o.nodes) != 1 {
			t.Fatalf("replay sends single arrivals, got %v", o.nodes)
		}
		h, err := r.AddCustomer(o.nodes[0])
		if err != nil {
			return opResult{err: err}
		}
		return opResult{handles: []int{h}}
	case opDepartures:
		for _, h := range o.handles {
			if !r.HasCustomer(h) {
				return opResult{err: fmt.Errorf("%w: %d", dynamic.ErrUnknownHandle, h)}
			}
		}
		for _, h := range o.handles {
			if err := r.RemoveCustomer(h); err != nil {
				t.Fatal(err)
			}
		}
		return opResult{handles: o.handles}
	case opResolve:
		sol, _, err := o.algo.Solve(context.Background(), inst)
		if err == nil {
			err = r.AdoptSelection(sol.Selected)
		}
		return opResult{err: err}
	}
	t.Fatalf("replay of op kind %d", o.kind)
	return opResult{}
}

// replyKey renders a client's write reply the way the linearizability
// check compares it with the record: the status, then the error code of
// a failure, or the handles, objective and note of a success.
func replyKey(t *testing.T, rec *httptest.ResponseRecorder) string {
	var reply struct {
		Handles   []int  `json:"handles"`
		Objective int64  `json:"objective"`
		Note      string `json:"note"`
		Code      string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Errorf("bad reply %q: %v", rec.Body, err)
	}
	if rec.Code != http.StatusOK {
		return fmt.Sprintf("%d %s", rec.Code, reply.Code)
	}
	return fmt.Sprintf("%d %v %d %s", rec.Code, reply.Handles, reply.Objective, reply.Note)
}

// recordedKey renders a recorded op's result as replyKey renders the
// reply its handler wrote from it.
func recordedKey(res opResult) string {
	if res.err != nil {
		status, code := statusOf(res.err)
		return fmt.Sprintf("%d %s", status, code)
	}
	return fmt.Sprintf("%d %v %d %s", http.StatusOK, res.handles, res.objective, res.note)
}
