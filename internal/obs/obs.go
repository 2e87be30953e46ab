// Package obs is the zero-dependency observability layer threaded
// through every solver layer and the serving stack (DESIGN.md §13).
//
// The unit of instrumentation is the Recorder: a set of named monotonic
// work counters (heap pops, augmenting paths, branch-and-bound nodes,
// repair passes — the natural work units of the paper's algorithms)
// plus a tree of phase spans (solve → iterate → match → repair) that
// attribute elapsed time and counter deltas to algorithm phases. A
// Recorder travels via context.Context (WithRecorder / From), so no
// solver signature changes: instrumented code asks the context once per
// entry point and accumulates into plain local integers on the hot
// path, flushing with a handful of atomic adds on exit.
//
// Recording is strictly passive — it never feeds back into any solver
// decision, pinned by the traced-vs-untraced byte-identity tests in
// internal/bench. Absent a Recorder every hook is nil-safe and
// amounts to a context lookup per solve-layer call plus local counter
// arithmetic already dominated by the work being counted (verified by
// BenchmarkRecorderOverhead in internal/graph).
//
// Counters are safe for concurrent use (atomic). The span stack is
// guarded by a mutex but assumes phases of one Recorder nest from a
// single goroutine at a time — true for every solver (single-threaded
// per solve) and for mcfsd, where only the request goroutine holding
// the writer runs solver code, one holder at a time.
package obs

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one named monotonic work counter. The fixed enum
// (rather than string keys) keeps recording an array-indexed atomic add
// with no map or allocation on any path a solver touches.
type Counter int

// The counter catalogue, one block per layer.
const (
	// Graph search layer (internal/graph).
	DijkstraHeapPops Counter = iota
	DijkstraRelaxations
	// Matching engine (internal/bipartite, the SSPA of §IV-D).
	SSPASearches
	SSPANodesScanned
	SSPAEdgesMaterialized
	SSPAAugmentingPaths
	// WMA main loop (internal/core, Algorithm 1).
	WMAIterations
	// Exact solver (internal/solver, branch and bound).
	BnBNodesExpanded
	BnBNodesPruned
	BnBIncumbentUpdates
	// Dynamic layer (internal/dynamic).
	ReallocRepairs
	ReallocReroutedCustomers
	ReallocFullSolves
	// Serving layer durability (internal/serve).
	ServeSnapshots
	ServeSnapshotFailures

	numCounters // sentinel; keep last
)

// counterNames are the stable exposition names (Prometheus metric
// stems, bench CSV columns, span-delta keys). Never rename an entry —
// downstream trajectories key on them.
var counterNames = [numCounters]string{
	DijkstraHeapPops:         "dijkstra_heap_pops",
	DijkstraRelaxations:      "dijkstra_relaxations",
	SSPASearches:             "sspa_searches",
	SSPANodesScanned:         "sspa_nodes_scanned",
	SSPAEdgesMaterialized:    "sspa_edges_materialized",
	SSPAAugmentingPaths:      "sspa_augmenting_paths",
	WMAIterations:            "wma_iterations",
	BnBNodesExpanded:         "bnb_nodes_expanded",
	BnBNodesPruned:           "bnb_nodes_pruned",
	BnBIncumbentUpdates:      "bnb_incumbent_updates",
	ReallocRepairs:           "realloc_repairs",
	ReallocReroutedCustomers: "realloc_rerouted_customers",
	ReallocFullSolves:        "realloc_full_solves",
	ServeSnapshots:           "serve_snapshots",
	ServeSnapshotFailures:    "serve_snapshot_failures",
}

// counterHelp is the one-line exposition help text per counter.
var counterHelp = [numCounters]string{
	DijkstraHeapPops:         "frontier pops across all network Dijkstra variants",
	DijkstraRelaxations:      "successful distance improvements across all network Dijkstra variants",
	SSPASearches:             "inner shortest-path searches run by the bipartite matching engine",
	SSPANodesScanned:         "bipartite nodes settled by the matching engine's inner searches",
	SSPAEdgesMaterialized:    "customer-facility edges lazily materialized into the bipartite graph",
	SSPAAugmentingPaths:      "augmenting paths applied by the matching engine",
	WMAIterations:            "WMA main-loop iterations (Algorithm 1)",
	BnBNodesExpanded:         "branch-and-bound nodes evaluated (relaxation solves)",
	BnBNodesPruned:           "branch-and-bound frontier nodes discarded by the incumbent bound",
	BnBIncumbentUpdates:      "branch-and-bound incumbent improvements",
	ReallocRepairs:           "reallocator repair passes (one per departure or refused arrival, one per rebuild)",
	ReallocReroutedCustomers: "customers whose facility a repair pass changed (the cancelled cycle of a departure or a refused arrival, or every customer of a rebuild)",
	ReallocFullSolves:        "full WMA re-selections run by the reallocator",
	ServeSnapshots:           "periodic snapshots persisted to disk by the serving engine",
	ServeSnapshotFailures:    "periodic snapshots that failed to persist to disk",
}

// Name returns the counter's stable exposition name.
func (c Counter) Name() string {
	if c < 0 || c >= numCounters {
		return fmt.Sprintf("counter_%d", int(c))
	}
	return counterNames[c]
}

// Help returns the counter's one-line description.
func (c Counter) Help() string {
	if c < 0 || c >= numCounters {
		return ""
	}
	return counterHelp[c]
}

// Counters returns the full catalogue in fixed (exposition) order.
func Counters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// maxSpans bounds the span tree. Solvers that open a phase per search
// node (branch and bound on a hard instance) would otherwise grow the
// tree without limit; beyond the cap Phase returns nil and only the
// counters keep accumulating.
const maxSpans = 4096

// Span is one node of the reported phase tree: a named phase, its
// elapsed wall time, the counter deltas observed while it was open
// (children included), and its sub-phases in open order. The tree
// structure and counter values are deterministic for a deterministic
// run; only Elapsed varies.
type Span struct {
	Name     string           `json:"name"`
	Elapsed  time.Duration    `json:"elapsed_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*Span          `json:"-"`
}

// span is the recorder-internal node carrying the open-phase state.
type span struct {
	name     string
	start    time.Time
	at       [numCounters]int64 // counter snapshot when opened
	elapsed  time.Duration      // valid once closed
	closed   bool
	deltas   [numCounters]int64 // valid once closed
	children []*span
}

// Phase is a handle to an open span; close it with End. A nil Phase
// (from a nil Recorder or an overflowing tree) is inert.
type Phase struct {
	r *Recorder
	s *span
}

// Recorder accumulates counters and phase spans for one run (a solve, a
// serving process, a bench cell). The zero value is NOT ready; use New.
// A nil *Recorder is valid everywhere and records nothing.
type Recorder struct {
	counters [numCounters]paddedInt64

	mu    sync.Mutex
	roots []*span
	stack []*span
	spans int
}

// paddedInt64 spaces the counters out to their own cache lines so the
// goroutines sharing one recorder (in mcfsd: the request goroutine
// holding the writer, the snapshot loop, and the /metrics and /stats
// handlers) do not false-share.
type paddedInt64 struct {
	v int64
	_ [56]byte
}

// New returns an empty Recorder.
func New() *Recorder { return &Recorder{} }

// Add increments counter c by n. Nil-safe, concurrency-safe, and
// monotone by convention (n must be nonnegative).
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil || n == 0 || c < 0 || c >= numCounters {
		return
	}
	atomic.AddInt64(&r.counters[c].v, n)
}

// Counter returns the current value of c (0 on a nil Recorder).
func (r *Recorder) Counter(c Counter) int64 {
	if r == nil || c < 0 || c >= numCounters {
		return 0
	}
	return atomic.LoadInt64(&r.counters[c].v)
}

// Snapshot returns every counter keyed by name, zeros included, in a
// freshly allocated map.
func (r *Recorder) Snapshot() map[string]int64 {
	out := make(map[string]int64, numCounters)
	for c := Counter(0); c < numCounters; c++ {
		var v int64
		if r != nil {
			v = atomic.LoadInt64(&r.counters[c].v)
		}
		out[c.Name()] = v
	}
	return out
}

// snapshotArray copies the counters into a plain array (span deltas).
func (r *Recorder) snapshotArray() (out [numCounters]int64) {
	for c := 0; c < int(numCounters); c++ {
		out[c] = atomic.LoadInt64(&r.counters[c].v)
	}
	return out
}

// Phase opens a span named name nested under the currently open span
// (or as a new root). Returns nil — inert — on a nil Recorder or once
// the tree hits its size cap. Phases must be closed in LIFO order from
// the goroutine that opened them.
func (r *Recorder) Phase(name string) *Phase {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spans >= maxSpans {
		return nil
	}
	r.spans++
	s := &span{name: name, at: r.snapshotArray()}
	s.start = time.Now()
	if len(r.stack) > 0 {
		top := r.stack[len(r.stack)-1]
		top.children = append(top.children, s)
	} else {
		r.roots = append(r.roots, s)
	}
	r.stack = append(r.stack, s)
	return &Phase{r: r, s: s}
}

// End closes the phase. If inner phases were left open (an error path
// returned early), they are closed with it. Nil-safe; ending a phase
// twice, or one no longer on the stack, is a no-op.
func (p *Phase) End() {
	if p == nil || p.r == nil {
		return
	}
	r := p.r
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := -1
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == p.s {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	now := r.snapshotArray()
	for i := len(r.stack) - 1; i >= idx; i-- {
		s := r.stack[i]
		s.elapsed = time.Since(s.start)
		for c := range s.deltas {
			s.deltas[c] = now[c] - s.at[c]
		}
		s.closed = true
	}
	r.stack = r.stack[:idx]
}

// Spans returns a deep copy of the recorded phase tree. Open spans
// appear with their elapsed time so far. Counter deltas include the
// contributions of nested phases (the tree aggregates bottom-up by
// construction).
func (r *Recorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.snapshotArray()
	out := make([]*Span, 0, len(r.roots))
	for _, s := range r.roots {
		out = append(out, s.export(now))
	}
	return out
}

// export converts an internal span (and its subtree) to the public
// form, computing live deltas for still-open spans from now.
func (s *span) export(now [numCounters]int64) *Span {
	e := &Span{Name: s.name}
	var deltas [numCounters]int64
	if s.closed {
		e.Elapsed = s.elapsed
		deltas = s.deltas
	} else {
		e.Elapsed = time.Since(s.start)
		for c := range deltas {
			deltas[c] = now[c] - s.at[c]
		}
	}
	for c := Counter(0); c < numCounters; c++ {
		if deltas[c] != 0 {
			if e.Counters == nil {
				e.Counters = make(map[string]int64)
			}
			e.Counters[c.Name()] = deltas[c]
		}
	}
	for _, child := range s.children {
		e.Children = append(e.Children, child.export(now))
	}
	return e
}

// recorderKey carries the Recorder through a context.
type recorderKey struct{}

// WithRecorder returns a context carrying r. Attaching a nil Recorder
// returns ctx unchanged.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey{}, r)
}

// From extracts the Recorder from ctx, or nil when absent (including a
// nil ctx). All Recorder methods accept the nil result.
func From(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}

// WritePrometheus renders every counter in Prometheus text exposition
// format (0.0.4) as "<prefix>_<name>_total", zeros included, in fixed
// catalogue order.
func (r *Recorder) WritePrometheus(w io.Writer, prefix string) error {
	for c := Counter(0); c < numCounters; c++ {
		var v int64
		if r != nil {
			v = atomic.LoadInt64(&r.counters[c].v)
		}
		metric := prefix + "_" + c.Name() + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			metric, c.Help(), metric, metric, v); err != nil {
			return err
		}
	}
	return nil
}
