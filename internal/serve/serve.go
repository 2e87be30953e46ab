// Package serve implements the long-lived assignment service behind
// cmd/mcfsd: an instance is loaded once, a warm Reallocator tracks the
// customer population, and HTTP/JSON endpoints expose queries and
// churn.
//
// The concurrency model is single-writer/many-readers. Reads (/assign,
// /snapshot, /stats, /healthz, and the periodic snapshot-to-disk policy)
// are served lock-free from an immutable published view swapped through
// an atomic pointer: the Reallocator's frozen state (dynamic.View), whose
// live table shares every page the batch did not write with the view
// before it, so publishing costs the pages a batch touched, not the
// population. Writes (/arrivals, /departures, /resolve — anything
// touching the Reallocator) queue an operation and compete for the one
// writer, which holds the Reallocator and waits in a one-place slot
// while nobody writes. The request goroutine that takes it applies the
// queued operations up to its own in batches of at most maxBatch,
// publishing a fresh view once per batch before it releases that batch's
// waiting requests, and then puts the writer back: a lone client applies
// its own write with no handoff, and concurrent writers still coalesce
// into one repair window. Request deadlines map onto the Reallocator's
// context API: each operation runs under its request's context (bounded
// by DefaultTimeout), and a cancelled or failed operation leaves the
// state it found, so the batch's publish reads that state and never
// rebuilds.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
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
	// (snapshotter.go): every interval the engine persists the published
	// view as one generation into SnapshotDir via atomic temp+rename,
	// never taking the writer. Requires SnapshotDir.
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

// endpointNames fixes the catalogue (and report order) of instrumented
// endpoints.
var endpointNames = []string{"assign", "arrivals", "departures", "resolve", "snapshot", "stats"}

// Server is the serving engine. Create one with New, mount Handler on
// an http.Server, and Close it to stop applying writes.
type Server struct {
	cfg   Config
	view  atomic.Pointer[dynamic.View]
	fs    FS
	clock Clock

	// ops queues the writes waiting to be applied; slot holds the writer
	// whenever no goroutine is applying them (see do).
	ops  chan op
	slot chan *writer
	quit chan struct{}
	wg   sync.WaitGroup

	batches    atomic.Int64 // repair windows run
	batchedOps atomic.Int64 // operations processed inside them
	// pending counts the writes submitted and neither taken nor
	// withdrawn: the backlog /stats and /metrics report as queue depth.
	// An op leaves it with the state change that settles its owner.
	pending atomic.Int64

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

	// onBatch, when non-nil, sees every applied batch and its results in
	// the order the writer applied them, before any of its requests is
	// answered. Only tests set it, before the first write.
	onBatch func(batch []op, results []opResult)
}

// writer holds the Reallocator. A Server has exactly one, and only the
// goroutine holding it may call the Reallocator: New until it first puts
// the writer in the slot, and afterwards whoever takes it from there,
// until it puts it back.
type writer struct {
	r *mcfs.Reallocator
}

// New loads the instance into a warm Reallocator (restoring from
// cfg.Snapshot when given), publishes the initial view, and puts the
// writer in its slot.
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
	w := &writer{r: r}
	s := &Server{
		cfg:   cfg,
		fs:    cfg.FS,
		clock: cfg.Clock,
		ops:   make(chan op, 4*maxBatch),
		slot:  make(chan *writer, 1),
		quit:  make(chan struct{}),
		lat:   make(map[string]*metrics.Histogram, len(endpointNames)),
		rec:   obs.New(),
	}
	//lint:ignore determinism serving uptime is operational telemetry, never solver input
	s.start = time.Now()
	for _, name := range endpointNames {
		s.lat[name] = &metrics.Histogram{}
	}
	if cfg.SnapshotEvery > 0 {
		if err := s.fs.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: snapshot dir: %w", err)
		}
		// Resume the generation sequence after the newest existing file
		// so a restore into the same directory never collides.
		gens, err := listGenerations(s.fs, cfg.SnapshotDir)
		if err != nil {
			return nil, fmt.Errorf("serve: snapshot dir: %w", err)
		}
		if len(gens) > 0 {
			s.snapGen.Store(gens[len(gens)-1])
		}
	}
	s.publish(w)
	s.slot <- w
	if cfg.SnapshotEvery > 0 {
		s.wg.Add(1)
		//lint:ignore nakedgoroutine the snapshot ticker goroutine is joined by Close via s.wg
		go s.snapshotLoop()
	}
	return s, nil
}

// Close stops applying writes: it waits for the batch being applied,
// takes the writer and keeps it. A write still queued, or sent later,
// is withdrawn and fails with a shutdown error. The HTTP listener (owned
// by the caller) should be shut down first.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// Stop the snapshot loop and join it, then take the writer for
		// good.
		close(s.quit)
		s.wg.Wait()
		<-s.slot
	})
}

// View returns the currently published assignment, flattened: each call
// copies the whole population into a fresh value (never nil after a
// successful New). The endpoints read the published view itself.
func (s *Server) View() *mcfs.PublishedAssignment { return s.view.Load().Flatten() }

// Objective returns the published objective.
func (s *Server) Objective() int64 { return s.view.Load().Objective() }

// Recorder exposes the server's work-counter recorder (for expvar
// publication in cmd/mcfsd). Counters only; never nil.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// publish freezes the Reallocator's state and swaps it in. Its caller
// holds the writer w.
func (s *Server) publish(w *writer) {
	s.view.Store(w.r.Freeze())
}

// --- writes -----------------------------------------------------------------

type opKind int

const (
	opArrivals opKind = iota
	opDepartures
	opResolve
)

type op struct {
	kind    opKind
	ctx     context.Context
	nodes   []int32
	handles []int
	algo    mcfs.Algorithm
	reply   chan opResult
	// state settles who owns a queued op: the holder of the writer takes
	// it just before applying it, or its handler withdraws it once the
	// request context ends or the server closes, whichever comes first.
	state *atomic.Int32
}

// Op states.
const (
	opQueued int32 = iota
	opTaken
	opWithdrawn
)

type opResult struct {
	handles   []int
	note      string
	objective int64
	err       error
}

// combine applies queued batches with the writer w, which its caller
// holds, on behalf of o: while o is queued, batch after batch until o is
// answered; when o could not be queued yet, one batch to make room for
// it. It stops between batches once o's context has ended or the server
// is closed.
//
// A panic while applying leaves the Reallocator in an unknown state and
// the writer out of its slot. On a request goroutine net/http would
// recover it and keep serving with no writer, every later write waiting
// out its deadline, so the panic ends the process instead.
func (s *Server) combine(w *writer, o op, queued bool) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "panic: %v\n\n%s", p, debug.Stack())
			os.Exit(2)
		}
	}()
	for s.stopErr(o.ctx) == nil && (!queued || o.state.Load() == opQueued) {
		if batch := s.take(); len(batch) > 0 {
			s.process(w, batch)
		}
		if !queued {
			return
		}
	}
}

// stopErr reports why a write stops waiting: the server is closed, or
// its context has ended; nil while neither.
func (s *Server) stopErr(ctx context.Context) error {
	select {
	case <-s.quit:
		return errShutdown
	default:
		return ctx.Err()
	}
}

// take dequeues up to maxBatch operations without waiting for more.
func (s *Server) take() []op {
	var batch []op
	for len(batch) < maxBatch {
		select {
		case o := <-s.ops:
			batch = append(batch, o)
		default:
			return batch
		}
	}
	return batch
}

// process applies one batch with the writer w, publishes, and replies.
// An op withdrawn before it was taken, or whose context has ended, is
// skipped and not counted as batched.
func (s *Server) process(w *writer, batch []op) {
	results := make([]opResult, len(batch))
	taken := 0
	for i, o := range batch {
		if err := o.ctx.Err(); err != nil {
			// Its request has given up, though its handler may not have
			// withdrawn it yet (it may be the one applying this batch):
			// withdraw it here and answer with why.
			s.settle(o, opWithdrawn)
			results[i].err = err
			continue
		}
		if !s.settle(o, opTaken) {
			continue // withdrawn: its handler has answered already
		}
		taken++
		// Bind the request context (deadline/cancellation) and the
		// server-lifetime recorder together: the solver work each
		// operation triggers lands in the process counters.
		o.ctx = obs.WithRecorder(o.ctx, s.rec)
		w.r.SetContext(o.ctx)
		results[i] = s.apply(w, o)
	}
	s.publish(w)
	s.batches.Add(1)
	s.batchedOps.Add(int64(taken))
	obj := s.Objective()
	for i := range results {
		results[i].objective = obj
	}
	if s.onBatch != nil {
		s.onBatch(batch, results)
	}
	for i, o := range batch {
		o.reply <- results[i] // buffered, never blocks
	}
}

// apply runs one operation against the Reallocator of the writer w
// under its request context (already bound by process).
func (s *Server) apply(w *writer, o op) opResult {
	switch o.kind {
	case opArrivals:
		// Admit all or nothing. A failed arrival admits nobody, but the
		// ones before it may have re-solved the selection (drift or
		// saturation), so removing them again would not undo the request:
		// a request of several nodes returns to the state before its first
		// one, frozen in O(1) up front and restored only on failure.
		var before *dynamic.View
		if len(o.nodes) > 1 {
			before = w.r.Freeze()
		}
		handles := make([]int, 0, len(o.nodes))
		for _, node := range o.nodes {
			h, err := w.r.AddCustomer(node)
			if err != nil {
				if len(handles) > 0 {
					// The restore rebuilds the frozen population's optimal
					// matching over the frozen selection: the state served
					// before the request. A snapshot of a served state always
					// restores, short of a bug.
					r, rerr := mcfs.RestoreReallocator(s.cfg.Instance, before.Snapshot(), s.cfg.DriftFactor)
					if rerr != nil {
						return opResult{err: errors.Join(err, rerr)}
					}
					w.r = r
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
			if !w.r.HasCustomer(h) {
				return opResult{err: fmt.Errorf("%w: %d", dynamic.ErrUnknownHandle, h)}
			}
		}
		for _, h := range o.handles {
			if err := w.r.RemoveCustomer(h); err != nil {
				return opResult{err: err}
			}
		}
		return opResult{handles: o.handles}
	case opResolve:
		sol, note, err := o.algo.Solve(o.ctx, s.cfg.Instance)
		if err != nil {
			return opResult{err: err}
		}
		// A solve may use up the deadline and still succeed: the exact
		// search returns its incumbent at the deadline. The adoption is a
		// bounded rebuild, so it runs to the end rather than drop that
		// selection; the recorder stays bound.
		w.r.SetContext(context.WithoutCancel(o.ctx))
		if err := w.r.AdoptSelection(sol.Selected); err != nil {
			return opResult{err: err}
		}
		return opResult{note: note}
	}
	return opResult{err: fmt.Errorf("serve: unknown operation kind %d", o.kind)}
}

// do enqueues an operation and waits for its reply. While it waits it
// also competes for the writer: the goroutine that takes it from the
// slot applies the queued batches up to its own op (combine) and puts it
// back, so a lone client pays no handoff and concurrent writers still
// coalesce. An op still queued when its context ends or the server
// closes is withdrawn: by its handler, or, once its context has ended,
// by the holder that reaches it. Once taken, it runs, and do waits for
// what it did.
func (s *Server) do(ctx context.Context, o op) (opResult, error) {
	o.ctx = ctx
	o.reply = make(chan opResult, 1)
	o.state = new(atomic.Int32)
	s.pending.Add(1)
	queue := s.ops // nil once o is queued
	select {
	case queue <- o:
		queue = nil
	default: // the queue is full: wait for room, or make it
	}
	for {
		select {
		case queue <- o:
			queue = nil
		case res := <-o.reply:
			return res, res.err
		case w := <-s.slot:
			s.combine(w, o, queue == nil)
			s.slot <- w
			if err := s.stopErr(ctx); err != nil || queue == nil {
				return s.withdraw(o, err)
			}
		case <-ctx.Done():
			return s.withdraw(o, ctx.Err())
		case <-s.quit:
			return s.withdraw(o, errShutdown)
		}
	}
}

// settle moves o out of opQueued into state, unless a holder of the
// writer or o's handler did so first, and reports whether it did.
func (s *Server) settle(o op, state int32) bool {
	if !o.state.CompareAndSwap(opQueued, state) {
		return false
	}
	s.pending.Add(-1)
	return true
}

// withdraw gives up on o with err, unless o is no longer its handler's
// to withdraw: a holder of the writer has taken it, or has withdrawn it
// for its ended context. Then it returns o's reply, which that holder
// has sent or is about to send. An op not queued yet is always its
// handler's.
func (s *Server) withdraw(o op, err error) (opResult, error) {
	if s.settle(o, opWithdrawn) {
		return opResult{}, err
	}
	res := <-o.reply
	return res, res.err
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
	node, fac, ok := s.view.Load().Lookup(h)
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

// handleSnapshot answers GET /snapshot from the published view, without
// taking the writer.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.view.Load().Snapshot()
	w.Header().Set("Content-Type", "application/json")
	_ = snap.Write(w)
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
// coalescing counters, the queue depth, and every
// instrumented endpoint's latency histogram (seconds, cumulative le
// buckets from metrics.Histogram.Buckets).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.rec.WritePrometheus(w, "mcfs")

	fmt.Fprintf(w, "# HELP mcfsd_batches_total repair windows run by the writer\n# TYPE mcfsd_batches_total counter\nmcfsd_batches_total %d\n", s.batches.Load())
	fmt.Fprintf(w, "# HELP mcfsd_batched_ops_total operations coalesced into repair windows\n# TYPE mcfsd_batched_ops_total counter\nmcfsd_batched_ops_total %d\n", s.batchedOps.Load())
	fmt.Fprintf(w, "# HELP mcfsd_queue_depth writes waiting for the writer, neither taken nor withdrawn\n# TYPE mcfsd_queue_depth gauge\nmcfsd_queue_depth %d\n", s.pending.Load())
	v := s.view.Load()
	fmt.Fprintf(w, "# HELP mcfsd_customers live customers in the published assignment\n# TYPE mcfsd_customers gauge\nmcfsd_customers %d\n", v.Customers())
	fmt.Fprintf(w, "# HELP mcfsd_objective published total assignment distance\n# TYPE mcfsd_objective gauge\nmcfsd_objective %d\n", v.Objective())
	fmt.Fprintf(w, "# HELP mcfsd_uptime_seconds seconds since the server started\n# TYPE mcfsd_uptime_seconds gauge\nmcfsd_uptime_seconds %.3f\n", time.Since(s.start).Seconds())
	fmt.Fprintf(w, "# HELP mcfsd_snapshot_generation newest persisted snapshot generation (0 = none yet)\n# TYPE mcfsd_snapshot_generation gauge\nmcfsd_snapshot_generation %d\n", s.snapGen.Load())
	fmt.Fprintf(w, "# HELP mcfsd_last_snapshot_timestamp_seconds unix time of the last persisted snapshot (0 = never)\n# TYPE mcfsd_last_snapshot_timestamp_seconds gauge\nmcfsd_last_snapshot_timestamp_seconds %d\n", s.lastSnapshotUnix.Load())

	// Copy the histograms and write after unlocking: every instrumented
	// request takes s.mu when it ends, so a client that stops reading
	// must not hold it.
	lat := make([]metrics.Histogram, len(endpointNames))
	s.mu.Lock()
	for i, name := range endpointNames {
		lat[i] = *s.lat[name]
	}
	s.mu.Unlock()
	fmt.Fprintf(w, "# HELP mcfsd_request_duration_seconds request latency by endpoint\n# TYPE mcfsd_request_duration_seconds histogram\n")
	for i, name := range endpointNames {
		h := &lat[i]
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
	if base := v.BaseObjective(); base > 0 {
		drift = float64(v.Objective()) / float64(base)
	}
	reply := StatsReply{
		Customers:          v.Customers(),
		Objective:          v.Objective(),
		BaseObjective:      v.BaseObjective(),
		Drift:              drift,
		Reallocator:        v.Stats(),
		Batches:            s.batches.Load(),
		BatchedOps:         s.batchedOps.Load(),
		QueueDepth:         int(s.pending.Load()),
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
