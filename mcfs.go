// Package mcfs solves the Multicapacity Facility Selection problem — the
// hard, nonuniform capacitated k-median problem over a road network — as
// introduced by Logins, Karras and Jensen, "Multicapacity Facility
// Selection in Networks" (ICDE 2019).
//
// Given a weighted network, a set of customer locations, a catalogue of
// candidate facilities each with its own capacity, and a budget k, the
// task is to open at most k facilities and assign every customer to
// exactly one of them, within capacities, minimizing the total
// shortest-path distance between customers and their facilities.
//
// The primary solver is the paper's Wide Matching Algorithm (Solve):
// a scalable heuristic that interleaves an optimal incremental bipartite
// matching with a lazy-greedy set-cover selection. The Algorithm
// registry runs it beside the paper's baselines (AlgorithmHilbert,
// AlgorithmBRNN, AlgorithmNaive), the Uniform-First strategy for
// nonuniform capacities (AlgorithmUniformFirst), and the exact solvers
// (AlgorithmExact, AlgorithmExhaustive) standing in for the paper's use
// of the Gurobi optimizer: choose one by name with ParseAlgorithm and
// run it with Algorithm.Solve. SolveExact returns the exact solver's
// full result (node count, optimality proof).
//
// Workload generators reproduce the paper's evaluation data: synthetic
// uniform/clustered networks (GenerateSynthetic), city-like road
// networks calibrated to the paper's Table III (GenerateCity), and the
// coworking/bike-sharing scenarios of §VII-F (NewCoworkingScenario,
// NewBikesScenario).
//
// A minimal end-to-end use:
//
//	g, _ := mcfs.GenerateSynthetic(mcfs.SyntheticConfig{N: 1000, Alpha: 2, Seed: 1})
//	rng := rand.New(rand.NewSource(2))
//	inst := &mcfs.Instance{
//		G:          g,
//		Customers:  mcfs.SampleCustomers(g, 100, rng),
//		Facilities: mcfs.SampleFacilities(g, 200, rng, mcfs.UniformCapacity(20)),
//		K:          10,
//	}
//	sol, err := mcfs.Solve(inst)
//	// sol.Selected, sol.Assignment, sol.Objective
package mcfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"mcfs/internal/core"
	"mcfs/internal/data"
	"mcfs/internal/dynamic"
	"mcfs/internal/gen"
	"mcfs/internal/graph"
	"mcfs/internal/localsearch"
	"mcfs/internal/realsim"
	"mcfs/internal/render"
	"mcfs/internal/solver"
)

// Core model types. These are aliases of the internal implementations so
// that all packages in the module interoperate without conversion.
type (
	// Graph is an immutable weighted network in CSR form; build one with
	// NewGraphBuilder or a generator.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and coordinates, then Builds a Graph.
	GraphBuilder = graph.Builder
	// Edge is a builder input edge.
	Edge = graph.Edge
	// Facility is a candidate facility location with a capacity.
	Facility = data.Facility
	// Instance is a full MCFS problem instance.
	Instance = data.Instance
	// Solution carries the selected facilities, the per-customer
	// assignment (facility indexes), and the total-distance objective.
	Solution = data.Solution
	// IterationStats describes one WMA iteration (progress reporting).
	IterationStats = core.IterationStats
)

// Inf is the distance reported for unreachable node pairs.
const Inf = graph.Inf

// Sentinel errors. Every entry point returns at most these well-known
// failures besides input-validation errors, so callers (and servers
// mapping errors onto protocol status codes) can switch on errors.Is:
//
//   - ErrInfeasible — the instance admits no feasible solution; returned
//     by every solver and by Reallocator operations that would overflow
//     the open capacity.
//   - ErrTimeout — SolveExact's time budget expired; also matches
//     context.DeadlineExceeded. Heuristic solvers surface a budget
//     expiry as plain context.DeadlineExceeded instead.
//   - ErrTooLarge — AlgorithmExhaustive's subset cap was exceeded; the
//     instance is too large for enumeration, pick another algorithm.
//   - context.Canceled / context.DeadlineExceeded — the caller's context
//     fired mid-solve (Ctx variants and Algorithm.Solve only).

// ErrInfeasible is returned by every solver when no feasible solution
// exists (insufficient capacity under budget k in some network
// component).
var ErrInfeasible = data.ErrInfeasible

// ErrTooLarge is returned by AlgorithmExhaustive when the number of
// k-subsets exceeds the enumeration cap (10^6) — the instance is too
// large for exhaustive search.
var ErrTooLarge = solver.ErrTooLarge

// NewGraphBuilder returns a builder for a graph with n nodes; if
// directed is false every edge is traversable both ways.
func NewGraphBuilder(n int, directed bool) *GraphBuilder {
	return graph.NewBuilder(n, directed)
}

// Option tunes the solvers. Not every option affects every solver; each
// option documents where it applies (see also the option × solver table
// in DESIGN.md §9). Passing an inapplicable option is harmless — it is
// ignored.
type Option func(*options)

type options struct {
	progress   func(IterationStats)
	timeBudget time.Duration
	seed       int64
	// err accumulates option-validation failures; buildOptions surfaces
	// it so a bad knob fails the solve instead of being silently ignored.
	err error
}

// WithProgress installs a per-iteration callback on runs of the WMA main
// loop (the paper's Fig. 12b statistics: covered customers, matching
// time, set-cover time). Applies to AlgorithmWMA (and Solve) and
// AlgorithmUniformFirst, which run WMA directly. It has no effect on the
// other algorithms, AssignToSelection or Improve — none of those run
// the instrumented loop (the exact solver's WMA warm start is
// deliberately silent).
func WithProgress(fn func(IterationStats)) Option {
	return func(o *options) { o.progress = fn }
}

// WithTimeBudget bounds a solve's wall-clock time. On SolveExact the
// budget is the branch-and-bound deadline: on expiry it returns its best
// incumbent alongside an error matching both ErrTimeout and
// context.DeadlineExceeded (AlgorithmExact reports that incumbent as a
// success with a "timeout" note). On every other algorithm, and on
// AssignToSelection and Improve, the budget is sugar for a context
// deadline layered onto the caller's context: on expiry the solve stops
// promptly and returns context.DeadlineExceeded, with the incumbent
// semantics of the solver at hand (see "Timeouts & cancellation" in the
// README).
//
// The budget must be positive: a zero or negative budget is rejected at
// solve time with a descriptive error rather than silently meaning
// "unbounded" — callers that want no bound simply omit the option.
func WithTimeBudget(d time.Duration) Option {
	return func(o *options) {
		if d <= 0 {
			o.err = errors.Join(o.err, fmt.Errorf("mcfs: WithTimeBudget(%v): budget must be positive (omit the option for an unbounded solve)", d))
			return
		}
		o.timeBudget = d
	}
}

// WithSeed seeds the randomized Naive baseline. Applies to
// AlgorithmNaive only — every other solver in the package is
// deterministic by construction and ignores it.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

func buildOptions(opts []Option) (options, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o, o.err
}

// orBackground is the package's one nil-ctx normalization: every
// exported *Ctx entry point accepts a nil ctx as context.Background(),
// and nothing below this package is ever handed nil.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// deadlineCtx layers the WithTimeBudget deadline (when set) onto the
// caller's context (nil meaning Background) for the heuristic solvers;
// the returned cancel must always be called to release the timer.
func (o options) deadlineCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx = orBackground(ctx)
	if o.timeBudget > 0 {
		return context.WithTimeout(ctx, o.timeBudget)
	}
	return ctx, func() {}
}

// Solve runs the Wide Matching Algorithm — the paper's primary
// contribution — and returns a feasible solution, or ErrInfeasible.
func Solve(inst *Instance, opts ...Option) (*Solution, error) {
	return SolveCtx(context.Background(), inst, opts...)
}

// SolveCtx is Solve with cooperative cancellation: the solve polls ctx
// throughout (per WMA iteration, per augmenting path, and inside long
// network searches) and returns promptly with ctx.Err() when it fires.
// WMA holds no feasible solution until its final assignment phase
// completes, so a cancelled run returns a nil Solution. An uncancelled
// run is byte-identical to Solve. WithTimeBudget adds a deadline to ctx.
func SolveCtx(ctx context.Context, inst *Instance, opts ...Option) (*Solution, error) {
	sol, _, err := AlgorithmWMA.Solve(ctx, inst, opts...)
	return sol, err
}

// ExactResult reports an exact solve: the solution, the number of
// explored branch-and-bound nodes, and whether optimality was proven
// (false only when the time budget or the context cut the search short).
type ExactResult struct {
	Solution *Solution
	Nodes    int
	Optimal  bool
}

// ErrTimeout is returned by SolveExact when its time budget expires; the
// accompanying ExactResult still carries the best incumbent found. The
// error also matches context.DeadlineExceeded under errors.Is.
var ErrTimeout = solver.ErrTimeout

// SolveExact computes the optimal solution by branch and bound — this
// repository's stand-in for the paper's Gurobi runs. Like the paper's
// MIP solves it is exact but intractable beyond small instances; bound
// it with WithTimeBudget to reproduce the "solver fails" regime.
func SolveExact(inst *Instance, opts ...Option) (*ExactResult, error) {
	return SolveExactCtx(context.Background(), inst, opts...)
}

// SolveExactCtx is SolveExact with cooperative cancellation. Unlike the
// heuristics, the branch-and-bound search holds a verified incumbent
// from its warm start onwards, so a cancelled run returns the best
// incumbent found so far (Optimal false) alongside ctx.Err() — exactly
// the contract of a WithTimeBudget expiry, whose error additionally
// matches ErrTimeout. The ExactResult is nil only when cancellation
// struck before any incumbent existed.
func SolveExactCtx(ctx context.Context, inst *Instance, opts ...Option) (*ExactResult, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	res, err := solver.BranchAndBoundCtx(orBackground(ctx), inst, solver.Options{TimeBudget: o.timeBudget})
	if res == nil {
		return nil, err
	}
	return &ExactResult{Solution: res.Solution, Nodes: res.Nodes, Optimal: res.Optimal}, err
}

// AssignToSelection computes the optimal assignment of all customers to
// a fixed facility selection (indexes into inst.Facilities) — the
// building block for custom selection strategies. It rejects a
// malformed instance (see Instance.Validate) and a selection holding an
// index out of range or one twice; it does not hold the selection to
// the budget K.
func AssignToSelection(inst *Instance, selected []int, opts ...Option) (*Solution, error) {
	return AssignToSelectionCtx(context.Background(), inst, selected, opts...)
}

// AssignToSelectionCtx is AssignToSelection with cooperative
// cancellation, checked per augmenting path; a cancelled run returns a
// nil Solution and ctx.Err(). WithTimeBudget adds a deadline to ctx.
func AssignToSelectionCtx(ctx context.Context, inst *Instance, selected []int, opts ...Option) (*Solution, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if _, err := inst.CheckSelection(selected); err != nil {
		return nil, err
	}
	ctx, cancel := o.deadlineCtx(ctx)
	defer cancel()
	return core.AssignToSelectionCtx(ctx, inst, selected)
}

// --- generators -----------------------------------------------------------

// SyntheticConfig parameterizes GenerateSynthetic (§VII-B).
type SyntheticConfig = gen.SyntheticConfig

// CityParams parameterizes GenerateCity; CityPreset returns calibrated
// parameters for the paper's four cities.
type CityParams = gen.CityParams

// CityStats reports Table III-style statistics of a network.
type CityStats = gen.CityStats

// CoworkingConfig parameterizes NewCoworkingScenario (§VII-F.1).
type CoworkingConfig = realsim.CoworkingConfig

// CoworkingScenario is generated coworking instance material.
type CoworkingScenario = realsim.CoworkingScenario

// DistrictConfig parameterizes DistrictCustomers (§VII-F.1b).
type DistrictConfig = realsim.DistrictConfig

// BikesConfig parameterizes NewBikesScenario (§VII-F.2).
type BikesConfig = realsim.BikesConfig

// BikesScenario is generated bike-sharing instance material.
type BikesScenario = realsim.BikesScenario

// Venue is a coworking candidate facility with occupancy and hours.
type Venue = realsim.Venue

// GenerateSynthetic builds a uniform or clustered synthetic network on
// the 10³×10³ square with the α-radius connection rule.
func GenerateSynthetic(cfg SyntheticConfig) (*Graph, error) { return gen.Synthetic(cfg) }

// CityPreset returns parameters calibrated to one of the paper's Table
// III cities ("aalborg", "riga", "copenhagen", "lasvegas"), scaled by
// scale (1.0 = paper size).
func CityPreset(name string, scale float64, seed int64) (CityParams, error) {
	return gen.CityPreset(name, scale, seed)
}

// GenerateCity builds a seeded city-like road network.
func GenerateCity(p CityParams) (*Graph, error) { return gen.City(p) }

// NetworkStats measures a network (Table III columns).
func NetworkStats(g *Graph) CityStats { return gen.Stats(g) }

// SampleCustomers draws m customer nodes uniformly (without replacement
// while possible).
func SampleCustomers(g *Graph, m int, rng *rand.Rand) []int32 {
	return gen.SampleCustomers(g, m, rng)
}

// SampleFacilities draws l distinct candidate facility nodes with
// capacities from capFn.
func SampleFacilities(g *Graph, l int, rng *rand.Rand, capFn func(j int) int) []Facility {
	return gen.SampleFacilities(g, l, rng, capFn)
}

// AllNodesFacilities makes every node a candidate (the paper's F_p = V)
// with capacities from capFn.
func AllNodesFacilities(g *Graph, capFn func(j int) int) []Facility {
	return gen.AllNodesFacilities(g, capFn)
}

// UniformCapacity yields the constant capacity c.
func UniformCapacity(c int) func(int) int { return gen.UniformCapacity(c) }

// RandomCapacity yields uniform capacities in [lo, hi].
func RandomCapacity(lo, hi int, rng *rand.Rand) func(int) int {
	return gen.RandomCapacity(lo, hi, rng)
}

// NewCoworkingScenario generates venues and Voronoi/triangle-distributed
// customers on g (§VII-F.1).
func NewCoworkingScenario(g *Graph, cfg CoworkingConfig) (*CoworkingScenario, error) {
	return realsim.Coworking(g, cfg)
}

// DistrictCustomers places customers proportionally to random district
// populations (§VII-F.1b).
func DistrictCustomers(g *Graph, cfg DistrictConfig) ([]int32, error) {
	return realsim.DistrictCustomers(g, cfg)
}

// NewBikesScenario generates docking stations and flow-divergence
// distributed bikes on g (§VII-F.2).
func NewBikesScenario(g *Graph, cfg BikesConfig) (*BikesScenario, error) {
	return realsim.Bikes(g, cfg)
}

// --- instance serialization -----------------------------------------------

// WriteInstance serializes an instance in the module's text format. It
// rejects a malformed instance (see Instance.Validate).
func WriteInstance(w io.Writer, inst *Instance) error {
	if err := inst.Validate(); err != nil {
		return err
	}
	return data.WriteInstance(w, inst)
}

// ReadInstance parses the text format. Counts must lie in [0, 2^31-1],
// and a graph of more than 2^16 nodes needs an edge per 16 nodes, so a
// short file cannot make the reader allocate much.
func ReadInstance(r io.Reader) (*Instance, error) { return data.ReadInstance(r) }

// LargestComponent returns the nodes of the largest connected component,
// none when g has no nodes; sampling workloads from it guarantees mutual
// reachability.
func LargestComponent(g *Graph) []int32 { return gen.LargestComponent(g) }

// SampleCustomersFrom draws m customers from a node pool.
func SampleCustomersFrom(nodes []int32, m int, rng *rand.Rand) []int32 {
	return gen.SampleCustomersFrom(nodes, m, rng)
}

// SampleFacilitiesFrom draws l distinct candidate facilities from a node
// pool with capacities from capFn.
func SampleFacilitiesFrom(nodes []int32, l int, rng *rand.Rand, capFn func(j int) int) []Facility {
	return gen.SampleFacilitiesFrom(nodes, l, rng, capFn)
}

// NodesFacilities makes every node of the pool a candidate facility.
func NodesFacilities(nodes []int32, capFn func(j int) int) []Facility {
	return gen.NodesFacilities(nodes, capFn)
}

// --- dynamic reallocation ---------------------------------------------------

// Reallocator maintains an MCFS solution while the customer population
// changes (the paper's "dynamic reallocation" motivation): arrivals are
// assigned incrementally along one optimal augmenting path each,
// departures are repaired in place with at most one bounded
// cycle-cancelling search, and the facility selection is re-solved
// when it saturates or the cost drifts.
type Reallocator = dynamic.Reallocator

// ReallocatorStats counts a Reallocator's work.
type ReallocatorStats = dynamic.Stats

// NewReallocator performs one full solve of the instance and returns a
// Reallocator tracking it. driftFactor (>1) bounds the tolerated cost
// drift before a full re-selection; 0 picks the default 1.5, negative
// disables drift-triggered re-solves, and a value in (0, 1] is an
// error. It takes no options: its WMA solves run the paper's
// configuration, silently.
func NewReallocator(inst *Instance, driftFactor float64) (*Reallocator, error) {
	return NewReallocatorCtx(context.Background(), inst, driftFactor)
}

// NewReallocatorCtx is NewReallocator with cooperative cancellation. The
// context is retained by the Reallocator and governs the initial full
// solve and every later operation (arrivals, rebuilds, re-selections);
// rebind it with the Reallocator's SetContext. A cancelled or failed
// operation returns its error and leaves the state it found, so the
// Reallocator stays usable and its reads (Objective, Publish, Snapshot)
// succeed under any context: none of them rebuilds. A departure is
// never cancelled: its repair does not poll the context.
func NewReallocatorCtx(ctx context.Context, inst *Instance, driftFactor float64) (*Reallocator, error) {
	return dynamic.NewCtx(orBackground(ctx), inst, dynamic.Options{DriftFactor: driftFactor})
}

// ReallocatorSnapshot is a restartable JSON capture of a Reallocator's
// dynamic state (live customers with their handles, the open selection,
// the drift baseline and work counters). Produce one with the
// Reallocator's Snapshot method, or the Snapshot method of a view its
// Freeze returned, persist it with its Write method, parse
// it back with ReadReallocatorSnapshot, and reconstruct the Reallocator
// with RestoreReallocator. Snapshots embed an instance fingerprint and
// restore only onto an identical instance, reproducing the snapshotted
// objective exactly.
type ReallocatorSnapshot = dynamic.Snapshot

// PublishedAssignment is an immutable point-in-time view of the
// assignment a Reallocator is serving, as flat per-customer slices that
// any number of goroutines may read. The Reallocator's Publish method,
// and the serving layer's View, flatten it on demand, copying the whole
// population; a serving process instead publishes the Reallocator's
// Freeze, which shares everything a batch did not write.
type PublishedAssignment = dynamic.Published

// ReadReallocatorSnapshot parses and structurally validates a snapshot
// previously persisted with ReallocatorSnapshot.Write.
func ReadReallocatorSnapshot(r io.Reader) (*ReallocatorSnapshot, error) {
	return dynamic.ReadSnapshot(r)
}

// RestoreReallocator reconstructs a Reallocator from a snapshot taken
// against an identical instance; see NewReallocator for driftFactor.
func RestoreReallocator(inst *Instance, s *ReallocatorSnapshot, driftFactor float64) (*Reallocator, error) {
	return RestoreReallocatorCtx(context.Background(), inst, s, driftFactor)
}

// RestoreReallocatorCtx is RestoreReallocator with cooperative
// cancellation; the context is retained as in NewReallocatorCtx. It
// rejects a malformed instance (see Instance.Validate) and a nil
// snapshot.
func RestoreReallocatorCtx(ctx context.Context, inst *Instance, s *ReallocatorSnapshot, driftFactor float64) (*Reallocator, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, errors.New("mcfs: nil snapshot")
	}
	return dynamic.RestoreCtx(orBackground(ctx), inst, s, dynamic.Options{DriftFactor: driftFactor})
}

// --- rendering --------------------------------------------------------------

// RenderSVG draws the instance — and, when sol is non-nil, its solution —
// as a standalone SVG document, 900 px wide (network grey, customers
// red, candidate facilities blue, selected facilities solid, assignments
// linked). It rejects a malformed instance (see Instance.Validate) and a
// solution that Instance.CheckSolution rejects.
func RenderSVG(w io.Writer, inst *Instance, sol *Solution) error {
	if err := checkDrawable(inst, sol); err != nil {
		return err
	}
	return render.SVG(w, inst, sol)
}

// checkDrawable validates what RenderSVG and WriteGeoJSON draw: the
// instance, and the solution when there is one.
func checkDrawable(inst *Instance, sol *Solution) error {
	if err := inst.Validate(); err != nil {
		return err
	}
	if sol == nil {
		return nil
	}
	_, err := inst.CheckSolution(sol)
	return err
}

// --- local-search polish -----------------------------------------------------

// ImproveStats reports local-search work counters.
type ImproveStats = localsearch.Stats

// Improve post-optimizes a solution with single-swap local search
// (exchange one open facility for a nearby unselected candidate,
// rebuilding the optimal assignment; first-improvement, at most 2·k
// accepted swaps). The returned solution is never worse than the input.
func Improve(inst *Instance, sol *Solution, opts ...Option) (*Solution, ImproveStats, error) {
	return ImproveCtx(context.Background(), inst, sol, opts...)
}

// ImproveCtx is Improve with cooperative cancellation, checked before
// every candidate swap. Local search always holds a verified feasible
// incumbent (the input or the best accepted swap so far), so a
// cancelled run returns that incumbent alongside ctx.Err() — the polish
// achieved up to the cut is kept. WithTimeBudget adds a deadline to
// ctx, turning the search into an anytime polish pass.
func ImproveCtx(ctx context.Context, inst *Instance, sol *Solution, opts ...Option) (*Solution, ImproveStats, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, ImproveStats{}, err
	}
	ctx, cancel := o.deadlineCtx(ctx)
	defer cancel()
	return localsearch.ImproveCtx(ctx, inst, sol, localsearch.Options{})
}

// --- DIMACS road-network interchange ----------------------------------------

// ReadDIMACSGraph parses a 9th-DIMACS-challenge shortest-path graph (and
// optional coordinate companion; pass nil to skip). undirected collapses
// the symmetric arc pairs of road-network distributions. As in
// ReadInstance, a graph of more than 2^16 nodes needs an edge per 16.
func ReadDIMACSGraph(gr io.Reader, co io.Reader, undirected bool) (*Graph, error) {
	return data.ReadDIMACSGraph(gr, co, undirected)
}

// WriteDIMACSGraph emits a graph (and, when coW is non-nil and
// coordinates exist, their companion file) in DIMACS format.
func WriteDIMACSGraph(grW io.Writer, coW io.Writer, g *Graph) error {
	return data.WriteDIMACSGraph(grW, coW, g)
}

// WriteGeoJSON exports an instance and optional solution as a GeoJSON
// FeatureCollection (customers and facilities as Points with properties,
// assignments as LineStrings) for use in standard mapping tools. It
// rejects a malformed instance (see Instance.Validate) and a solution
// that Instance.CheckSolution rejects.
func WriteGeoJSON(w io.Writer, inst *Instance, sol *Solution) error {
	if err := checkDrawable(inst, sol); err != nil {
		return err
	}
	return render.GeoJSON(w, inst, sol)
}
