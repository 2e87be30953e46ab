// Package serve implements the long-lived assignment service behind
// cmd/mcfsd: an instance is loaded once, a warm Reallocator tracks the
// customer population, and HTTP/JSON endpoints expose queries and
// churn.
//
// The concurrency model is single-writer/many-readers. Reads (/assign,
// /stats, /healthz) are served lock-free from an immutable published
// view swapped through an atomic pointer. Writes (/arrivals,
// /departures, /resolve, /snapshot — anything touching the Reallocator)
// are serialized through one batching goroutine that drains its queue,
// coalesces up to maxBatch operations into one repair window, publishes
// a fresh view once, and only then releases the waiting requests.
// Request deadlines map onto the Reallocator's context API: each
// operation runs under its request's context (bounded by
// DefaultTimeout), and a cancelled or failed operation leaves the state
// it found, so the batch's publish reads that state and never rebuilds.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcfs"
	"mcfs/internal/dynamic"
	"mcfs/internal/metrics"
	"mcfs/internal/obs"
)

// Config assembles a Server.
type Config struct {
	// Instance is the loaded problem instance; required.
	Instance *mcfs.Instance
	// Algorithm is the default /resolve algorithm; empty means WMA.
	Algorithm mcfs.Algorithm
	// DriftFactor is the serving drift policy, passed to the Reallocator
	// (0 = its default 1.5, negative disables): the arrival that lifts
	// the objective past DriftFactor × the baseline of the last full
	// solve re-solves inline, inside its own request.
	DriftFactor float64
	// DefaultTimeout bounds each write operation's context when the
	// request itself carries no earlier deadline; 0 picks 5s.
	DefaultTimeout time.Duration
	// Snapshot, when non-nil, restores the dynamic state from a capture
	// instead of performing a fresh full solve.
	Snapshot *mcfs.ReallocatorSnapshot
	// Logger, when non-nil, receives one structured line per request
	// (request id, method, path, status, bytes, duration). Nil disables
	// request logging.
	Logger *slog.Logger

	// SnapshotEvery > 0 enables the periodic snapshot-to-disk policy
	// (snapshotter.go): every interval the engine captures the settled
	// state through the batch loop and persists one generation into
	// SnapshotDir via atomic temp+rename. Requires SnapshotDir.
	SnapshotEvery time.Duration
	// SnapshotDir is the generation directory (created if missing).
	SnapshotDir string
	// SnapshotKeep bounds retained generations; 0 picks 3.
	SnapshotKeep int

	// FS and Clock are the durability layer's injectable seams
	// (fsclock.go); nil picks the os/time-backed production versions.
	FS    FS
	Clock Clock
}

// maxBatch caps how many queued operations one repair window coalesces.
const maxBatch = 64

// maxBody caps a POST body: 1 MiB, about 150k handles or nodes in one
// /arrivals or /departures request. A longer body is refused with 413
// before it is decoded whole.
const maxBody = 1 << 20

// errShutdown is returned to requests that arrive while the server is
// draining.
var errShutdown = errors.New("serve: server is shutting down")

// view is the unit of publication: the immutable assignment plus the
// scalar state the read-only endpoints report.
type view struct {
	pub   *mcfs.PublishedAssignment
	base  int64
	stats mcfs.ReallocatorStats
	// queueDepth is the number of operations still waiting in the writer
	// queue at the moment this view was published — the backlog signal
	// /stats and /metrics report (reads stay lock-free; sampling at
	// publish time is the single-writer-consistent point to take it).
	queueDepth int
}

// endpointNames fixes the catalogue (and report order) of instrumented
// endpoints.
var endpointNames = []string{"assign", "arrivals", "departures", "resolve", "snapshot", "stats"}

// Server is the serving engine. Create one with New, mount Handler on
// an http.Server, and Close it to drain the writer goroutine.
type Server struct {
	cfg   Config
	r     *mcfs.Reallocator
	view  atomic.Pointer[view]
	fs    FS
	clock Clock

	ops  chan op
	quit chan struct{}
	wg   sync.WaitGroup
	// baseCtx parents the snapshot loop's operation contexts and is
	// cancelled by Close before joining it, so a loop blocked on an op
	// reply never deadlocks the shutdown.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	batches    atomic.Int64 // repair windows run
	batchedOps atomic.Int64 // operations processed inside them

	// Durability state: the last persisted snapshot generation and when
	// it was written.
	snapGen          atomic.Int64
	lastSnapshotUnix atomic.Int64

	// rec accumulates the process-lifetime solver work counters: every
	// operation context is wrapped with it before reaching the
	// Reallocator, so the searches underneath report here (/metrics,
	// expvar in cmd/mcfsd).
	rec *obs.Recorder

	reqID atomic.Int64 // per-request id sequence for the request log

	mu    sync.Mutex
	lat   map[string]*metrics.Histogram
	start time.Time

	closeOnce sync.Once
}

// New loads the instance into a warm Reallocator (restoring from
// cfg.Snapshot when given), publishes the initial view, and starts the
// writer goroutine.
func New(cfg Config) (*Server, error) {
	if cfg.Instance == nil {
		return nil, errors.New("serve: Config.Instance is required")
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = mcfs.AlgorithmWMA
	}
	if !cfg.Algorithm.Valid() {
		return nil, fmt.Errorf("serve: unknown algorithm %q", cfg.Algorithm)
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Second
	}
	if cfg.SnapshotEvery > 0 && cfg.SnapshotDir == "" {
		return nil, errors.New("serve: Config.SnapshotEvery requires Config.SnapshotDir")
	}
	if cfg.SnapshotKeep <= 0 {
		cfg.SnapshotKeep = 3
	}
	if cfg.FS == nil {
		cfg.FS = osFS{}
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	var r *mcfs.Reallocator
	var err error
	if cfg.Snapshot != nil {
		r, err = mcfs.RestoreReallocator(cfg.Instance, cfg.Snapshot, cfg.DriftFactor)
	} else {
		r, err = mcfs.NewReallocator(cfg.Instance, cfg.DriftFactor)
	}
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		r:     r,
		fs:    cfg.FS,
		clock: cfg.Clock,
		ops:   make(chan op, 4*maxBatch),
		quit:  make(chan struct{}),
		lat:   make(map[string]*metrics.Histogram, len(endpointNames)),
		rec:   obs.New(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	//lint:ignore determinism serving uptime is operational telemetry, never solver input
	s.start = time.Now()
	for _, name := range endpointNames {
		s.lat[name] = &metrics.Histogram{}
	}
	if cfg.SnapshotEvery > 0 {
		if err := s.fs.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			s.baseCancel()
			return nil, fmt.Errorf("serve: snapshot dir: %w", err)
		}
		// Resume the generation sequence after the newest existing file
		// so a restore into the same directory never collides.
		gens, err := listGenerations(s.fs, cfg.SnapshotDir)
		if err == nil && len(gens) > 0 {
			s.snapGen.Store(gens[len(gens)-1])
		}
	}
	if err := s.publish(); err != nil {
		s.baseCancel()
		return nil, err
	}
	s.wg.Add(1)
	//lint:ignore nakedgoroutine the writer goroutine is joined by Close via s.wg
	go s.loop()
	if cfg.SnapshotEvery > 0 {
		s.wg.Add(1)
		//lint:ignore nakedgoroutine the snapshot ticker goroutine is joined by Close via s.wg
		go s.snapshotLoop()
	}
	return s, nil
}

// Close stops the writer goroutine and waits for it. Queued operations
// that were not yet picked up are failed with a shutdown error. The
// HTTP listener (owned by the caller) should be shut down first.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// Unblock any background loop waiting on an op reply the writer
		// will never send, then stop all loops and join them.
		s.baseCancel()
		close(s.quit)
		s.wg.Wait()
		// Fail whatever is still queued so no request waits forever.
		for {
			select {
			case o := <-s.ops:
				o.reply <- opResult{err: errShutdown}
			default:
				return
			}
		}
	})
}

// View returns the currently published assignment (never nil after a
// successful New).
func (s *Server) View() *mcfs.PublishedAssignment { return s.view.Load().pub }

// Objective returns the published objective.
func (s *Server) Objective() int64 { return s.View().Objective }

// Recorder exposes the server's work-counter recorder (for expvar
// publication in cmd/mcfsd). Counters only; never nil.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// publish materializes the Reallocator's state and swaps it in. Runs on
// the writer goroutine (and once during New, before the loop starts).
func (s *Server) publish() error {
	pub, err := s.r.Publish()
	if err != nil {
		return err
	}
	s.view.Store(&view{pub: pub, base: s.r.BaseObjective(), stats: s.r.Stats(), queueDepth: len(s.ops)})
	return nil
}

// --- writer goroutine -------------------------------------------------------

type opKind int

const (
	opArrivals opKind = iota
	opDepartures
	opResolve
	opSnapshot
)

type op struct {
	kind    opKind
	ctx     context.Context
	nodes   []int32
	handles []int
	algo    mcfs.Algorithm
	reply   chan opResult
}

type opResult struct {
	handles   []int
	snapshot  *mcfs.ReallocatorSnapshot
	note      string
	objective int64
	err       error
}

// loop is the single writer: it blocks for one operation, drains the
// queue up to maxBatch (coalescing concurrent churn into one repair
// window), processes the batch against the Reallocator, publishes once,
// and then releases every waiter.
func (s *Server) loop() {
	defer s.wg.Done()
	for {
		var first op
		select {
		case <-s.quit:
			return
		case first = <-s.ops:
		}
		batch := []op{first}
		for len(batch) < maxBatch {
			select {
			case o := <-s.ops:
				batch = append(batch, o)
			default:
				goto full
			}
		}
	full:
		s.process(batch)
	}
}

// process applies one batch, publishes, and replies.
func (s *Server) process(batch []op) {
	results := make([]opResult, len(batch))
	for i, o := range batch {
		// Bind the request context (deadline/cancellation) and the
		// server-lifetime recorder together: the solver work each
		// operation triggers lands in the process counters.
		o.ctx = obs.WithRecorder(o.ctx, s.rec)
		s.r.SetContext(o.ctx)
		results[i] = s.apply(o)
	}
	pubErr := s.publish()
	s.batches.Add(1)
	s.batchedOps.Add(int64(len(batch)))
	obj := s.Objective()
	for i, o := range batch {
		res := results[i]
		if res.err == nil && pubErr != nil {
			res.err = pubErr
		}
		res.objective = obj
		o.reply <- res // buffered, never blocks
	}
}

// apply runs one operation against the Reallocator under its request
// context (already bound by process).
func (s *Server) apply(o op) opResult {
	switch o.kind {
	case opArrivals:
		// Admit all or nothing. A failed arrival admits nobody, but the
		// ones before it may have re-solved the selection (drift or
		// saturation), so removing them again would not undo the request:
		// a request of several nodes returns to a snapshot of the state
		// before its first one.
		var before *mcfs.ReallocatorSnapshot
		if len(o.nodes) > 1 {
			snap, err := s.r.Snapshot()
			if err != nil {
				return opResult{err: err}
			}
			before = snap
		}
		handles := make([]int, 0, len(o.nodes))
		for _, node := range o.nodes {
			h, err := s.r.AddCustomer(node)
			if err != nil {
				if len(handles) > 0 {
					// The restore rebuilds the captured population's optimal
					// matching over the captured selection: the state served
					// before the request. A snapshot of a served state always
					// restores, short of a bug.
					r, rerr := mcfs.RestoreReallocator(s.cfg.Instance, before, s.cfg.DriftFactor)
					if rerr != nil {
						return opResult{err: errors.Join(err, rerr)}
					}
					s.r = r
				}
				return opResult{err: err}
			}
			handles = append(handles, h)
		}
		return opResult{handles: handles}
	case opDepartures:
		// All or nothing: check every handle before removing any (the
		// handler already refused repeats). A live handle's removal
		// cannot fail, so the rest always lands.
		for _, h := range o.handles {
			if !s.r.HasCustomer(h) {
				return opResult{err: fmt.Errorf("%w: %d", dynamic.ErrUnknownHandle, h)}
			}
		}
		for _, h := range o.handles {
			if err := s.r.RemoveCustomer(h); err != nil {
				return opResult{err: err}
			}
		}
		return opResult{handles: o.handles}
	case opResolve:
		sol, note, err := o.algo.Solve(o.ctx, s.cfg.Instance)
		if err != nil {
			return opResult{err: err}
		}
		if err := s.r.AdoptSelection(sol.Selected); err != nil {
			return opResult{err: err}
		}
		return opResult{note: note}
	case opSnapshot:
		snap, err := s.r.Snapshot()
		return opResult{snapshot: snap, err: err}
	}
	return opResult{err: fmt.Errorf("serve: unknown operation kind %d", o.kind)}
}

// do enqueues an operation and waits for its result or the context.
func (s *Server) do(ctx context.Context, o op) (opResult, error) {
	o.ctx = ctx
	o.reply = make(chan opResult, 1)
	select {
	case s.ops <- o:
	case <-s.quit:
		return opResult{}, errShutdown
	case <-ctx.Done():
		return opResult{}, ctx.Err()
	}
	select {
	case res := <-o.reply:
		return res, res.err
	case <-ctx.Done():
		return opResult{}, ctx.Err()
	}
}

// --- HTTP layer -------------------------------------------------------------

// errorBody is the machine-readable error payload: code is a stable
// slug for programmatic handling, error the human-readable detail.
type errorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// statusOf maps the package's sentinel taxonomy onto HTTP.
func statusOf(err error) (int, string) {
	switch {
	case errors.Is(err, mcfs.ErrInfeasible):
		return http.StatusUnprocessableEntity, "infeasible"
	case errors.Is(err, mcfs.ErrTooLarge), errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, mcfs.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "canceled"
	case errors.Is(err, errShutdown):
		return http.StatusServiceUnavailable, "shutting_down"
	case errors.Is(err, dynamic.ErrUnknownHandle):
		return http.StatusNotFound, "unknown_handle"
	case errors.Is(err, dynamic.ErrBadNode):
		return http.StatusBadRequest, "bad_node"
	default:
		return http.StatusBadRequest, "bad_request"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeBody decodes a POST body of at most maxBody bytes into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status, code := statusOf(err)
	writeJSON(w, status, errorBody{Code: code, Error: err.Error()})
}

// opCtx derives the operation context: the request's own context,
// bounded by DefaultTimeout unless the request already carries an
// earlier deadline.
func (s *Server) opCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if dl, ok := ctx.Deadline(); ok {
		if time.Until(dl) <= s.cfg.DefaultTimeout {
			return context.WithCancel(ctx)
		}
	}
	return context.WithTimeout(ctx, s.cfg.DefaultTimeout)
}

// instrument wraps a handler with latency recording under name.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		//lint:ignore determinism endpoint latency is operational telemetry, never solver input
		start := time.Now()
		h(w, r)
		elapsed := time.Since(start)
		s.mu.Lock()
		s.lat[name].Observe(elapsed)
		s.mu.Unlock()
	}
}

// statusWriter captures the response status and size for the request
// log without altering the response.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += n
	return n, err
}

// logRequests wraps the mux with one structured slog line per request,
// tagged with a monotonically increasing request id that is also echoed
// back as the X-Request-Id response header.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		w.Header().Set("X-Request-Id", strconv.FormatInt(id, 10))
		sw := &statusWriter{ResponseWriter: w}
		//lint:ignore determinism request latency is operational telemetry, never solver input
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.Int64("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int("bytes", sw.bytes),
			slog.Duration("duration", time.Since(start)),
		)
	})
}

// Handler returns the endpoint mux (wrapped with request logging when
// Config.Logger is set).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /assign", s.instrument("assign", s.handleAssign))
	mux.HandleFunc("POST /arrivals", s.instrument("arrivals", s.handleArrivals))
	mux.HandleFunc("POST /departures", s.instrument("departures", s.handleDepartures))
	mux.HandleFunc("POST /resolve", s.instrument("resolve", s.handleResolve))
	mux.HandleFunc("GET /snapshot", s.instrument("snapshot", s.handleSnapshot))
	mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Logger != nil {
		return s.logRequests(mux)
	}
	return mux
}

// AssignReply answers GET /assign.
type AssignReply struct {
	Customer     int   `json:"customer"`
	Node         int32 `json:"node"`
	Facility     int   `json:"facility"`
	FacilityNode int32 `json:"facility_node"`
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("customer")
	h, err := strconv.Atoi(q)
	if err != nil {
		writeError(w, fmt.Errorf("bad customer handle %q: %w", q, err))
		return
	}
	node, fac, ok := s.View().Lookup(h)
	if !ok {
		writeError(w, fmt.Errorf("%w: %d", dynamic.ErrUnknownHandle, h))
		return
	}
	writeJSON(w, http.StatusOK, AssignReply{
		Customer:     h,
		Node:         node,
		Facility:     fac,
		FacilityNode: s.cfg.Instance.Facilities[fac].Node,
	})
}

// ArrivalsRequest is the POST /arrivals body.
type ArrivalsRequest struct {
	Nodes []int32 `json:"nodes"`
}

// ChurnReply answers POST /arrivals and POST /departures.
type ChurnReply struct {
	Handles   []int `json:"handles"`
	Objective int64 `json:"objective"`
}

func (s *Server) handleArrivals(w http.ResponseWriter, r *http.Request) {
	var req ArrivalsRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, fmt.Errorf("bad arrivals body: %w", err))
		return
	}
	if len(req.Nodes) == 0 {
		writeError(w, errors.New("arrivals body needs a non-empty nodes list"))
		return
	}
	// The network is fixed, so a bad node is refused before anything
	// is admitted.
	for _, node := range req.Nodes {
		if n := s.cfg.Instance.G.N(); node < 0 || int(node) >= n {
			writeError(w, fmt.Errorf("%w: node %d outside [0,%d)", dynamic.ErrBadNode, node, n))
			return
		}
	}
	ctx, cancel := s.opCtx(r)
	defer cancel()
	res, err := s.do(ctx, op{kind: opArrivals, nodes: req.Nodes})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ChurnReply{Handles: res.handles, Objective: res.objective})
}

// DeparturesRequest is the POST /departures body.
type DeparturesRequest struct {
	Handles []int `json:"handles"`
}

func (s *Server) handleDepartures(w http.ResponseWriter, r *http.Request) {
	var req DeparturesRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, fmt.Errorf("bad departures body: %w", err))
		return
	}
	if len(req.Handles) == 0 {
		writeError(w, errors.New("departures body needs a non-empty handles list"))
		return
	}
	named := make(map[int]bool, len(req.Handles))
	for _, h := range req.Handles {
		if named[h] {
			writeError(w, fmt.Errorf("departures name customer %d twice", h))
			return
		}
		named[h] = true
	}
	ctx, cancel := s.opCtx(r)
	defer cancel()
	res, err := s.do(ctx, op{kind: opDepartures, handles: req.Handles})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ChurnReply{Handles: res.handles, Objective: res.objective})
}

// ResolveRequest is the POST /resolve body; an empty algorithm picks
// the server's configured default.
type ResolveRequest struct {
	Algorithm string `json:"algorithm"`
}

// ResolveReply answers POST /resolve.
type ResolveReply struct {
	Algorithm string `json:"algorithm"`
	Note      string `json:"note,omitempty"`
	Objective int64  `json:"objective"`
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	var req ResolveRequest
	// An empty body means "defaults".
	if err := decodeBody(w, r, &req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, fmt.Errorf("bad resolve body: %w", err))
		return
	}
	algo := s.cfg.Algorithm
	if req.Algorithm != "" {
		var err error
		algo, err = mcfs.ParseAlgorithm(req.Algorithm)
		if err != nil {
			writeError(w, err)
			return
		}
	}
	ctx, cancel := s.opCtx(r)
	defer cancel()
	res, err := s.do(ctx, op{kind: opResolve, algo: algo})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ResolveReply{Algorithm: algo.String(), Note: res.note, Objective: res.objective})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.opCtx(r)
	defer cancel()
	res, err := s.do(ctx, op{kind: opSnapshot})
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = res.snapshot.Write(w)
}

// HealthzReply answers GET /healthz: liveness plus the build identity
// needed to tell deployed versions apart.
type HealthzReply struct {
	Status        string  `json:"status"`
	GoVersion     string  `json:"go_version"`
	VCSRevision   string  `json:"vcs_revision"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// buildRevision resolves the VCS revision stamped into the binary by
// the Go toolchain, "unknown" when the build carries no VCS info (go
// test binaries, source-dir builds).
func buildRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthzReply{
		Status:        "ok",
		GoVersion:     runtime.Version(),
		VCSRevision:   buildRevision(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// handleMetrics renders the Prometheus text exposition (format 0.0.4):
// the solver work counters accumulated across all operations, the batch
// coalescing counters, the published queue depth, and every
// instrumented endpoint's latency histogram (seconds, cumulative le
// buckets from metrics.Histogram.Buckets).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.rec.WritePrometheus(w, "mcfs")

	fmt.Fprintf(w, "# HELP mcfsd_batches_total repair windows run by the writer loop\n# TYPE mcfsd_batches_total counter\nmcfsd_batches_total %d\n", s.batches.Load())
	fmt.Fprintf(w, "# HELP mcfsd_batched_ops_total operations coalesced into repair windows\n# TYPE mcfsd_batched_ops_total counter\nmcfsd_batched_ops_total %d\n", s.batchedOps.Load())
	v := s.view.Load()
	fmt.Fprintf(w, "# HELP mcfsd_queue_depth writer-queue backlog at the last publish\n# TYPE mcfsd_queue_depth gauge\nmcfsd_queue_depth %d\n", v.queueDepth)
	fmt.Fprintf(w, "# HELP mcfsd_customers live customers in the published assignment\n# TYPE mcfsd_customers gauge\nmcfsd_customers %d\n", v.pub.Customers())
	fmt.Fprintf(w, "# HELP mcfsd_objective published total assignment distance\n# TYPE mcfsd_objective gauge\nmcfsd_objective %d\n", v.pub.Objective)
	fmt.Fprintf(w, "# HELP mcfsd_uptime_seconds seconds since the server started\n# TYPE mcfsd_uptime_seconds gauge\nmcfsd_uptime_seconds %.3f\n", time.Since(s.start).Seconds())
	fmt.Fprintf(w, "# HELP mcfsd_snapshot_generation newest persisted snapshot generation (0 = none yet)\n# TYPE mcfsd_snapshot_generation gauge\nmcfsd_snapshot_generation %d\n", s.snapGen.Load())
	fmt.Fprintf(w, "# HELP mcfsd_last_snapshot_timestamp_seconds unix time of the last persisted snapshot (0 = never)\n# TYPE mcfsd_last_snapshot_timestamp_seconds gauge\nmcfsd_last_snapshot_timestamp_seconds %d\n", s.lastSnapshotUnix.Load())

	fmt.Fprintf(w, "# HELP mcfsd_request_duration_seconds request latency by endpoint\n# TYPE mcfsd_request_duration_seconds histogram\n")
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range endpointNames {
		h := s.lat[name]
		for _, b := range h.Buckets() {
			fmt.Fprintf(w, "mcfsd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, strconv.FormatFloat(float64(b.UpperNS)/1e9, 'g', -1, 64), b.Cumulative)
		}
		fmt.Fprintf(w, "mcfsd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, h.Count())
		fmt.Fprintf(w, "mcfsd_request_duration_seconds_sum{endpoint=%q} %s\n",
			name, strconv.FormatFloat(float64(h.Sum())/1e9, 'g', -1, 64))
		fmt.Fprintf(w, "mcfsd_request_duration_seconds_count{endpoint=%q} %d\n", name, h.Count())
	}
}

// EndpointStats reports one endpoint's latency distribution.
type EndpointStats struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// StatsReply answers GET /stats.
type StatsReply struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Customers     int                   `json:"customers"`
	Objective     int64                 `json:"objective"`
	BaseObjective int64                 `json:"base_objective"`
	Drift         float64               `json:"drift"`
	Reallocator   mcfs.ReallocatorStats `json:"reallocator"`
	Batches       int64                 `json:"batches"`
	BatchedOps    int64                 `json:"batched_ops"`
	QueueDepth    int                   `json:"queue_depth"`
	// Durability (zero when the snapshot policy is disabled).
	Snapshots          int64                    `json:"snapshots"`
	SnapshotFailures   int64                    `json:"snapshot_failures"`
	SnapshotGeneration int64                    `json:"snapshot_generation"`
	LastSnapshotUnix   int64                    `json:"last_snapshot_unix"`
	Endpoints          map[string]EndpointStats `json:"endpoints"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	v := s.view.Load()
	drift := 0.0
	if v.base > 0 {
		drift = float64(v.pub.Objective) / float64(v.base)
	}
	reply := StatsReply{
		Customers:          v.pub.Customers(),
		Objective:          v.pub.Objective,
		BaseObjective:      v.base,
		Drift:              drift,
		Reallocator:        v.stats,
		Batches:            s.batches.Load(),
		BatchedOps:         s.batchedOps.Load(),
		QueueDepth:         v.queueDepth,
		Snapshots:          s.rec.Counter(obs.ServeSnapshots),
		SnapshotFailures:   s.rec.Counter(obs.ServeSnapshotFailures),
		SnapshotGeneration: s.snapGen.Load(),
		LastSnapshotUnix:   s.lastSnapshotUnix.Load(),
		Endpoints:          make(map[string]EndpointStats, len(endpointNames)),
	}
	reply.UptimeSeconds = time.Since(s.start).Seconds()
	s.mu.Lock()
	for _, name := range endpointNames {
		h := s.lat[name]
		reply.Endpoints[name] = EndpointStats{
			Count:  h.Count(),
			MeanNS: int64(h.Mean()),
			P50NS:  int64(h.Quantile(0.5)),
			P99NS:  int64(h.Quantile(0.99)),
			MaxNS:  int64(h.Max()),
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}
