package bench

import (
	"runtime"
	"slices"
	"strings"
	"sync"

	"mcfs/internal/data"
)

// This file is the harness's parallel execution layer. An experiment is
// decomposed into independent cells — typically one (sweep-point ×
// algorithm) pair, each fully determined by the experiment config and
// its explicit seeds — that are dispatched to a bounded worker pool.
// Each cell buffers the rows it emits; the pool replays them strictly
// in submission order, so a run at any worker count produces the same
// row stream as a serial one. Wall-clock Runtime values are the only
// nondeterministic row fields (cmd/mcfsbench -notimes zeroes them for
// byte-comparable output).
//
// Instance generation happens inside cells: each point's builder is
// memoized, so the first cell to need a point generates it (in parallel
// across points), and every cell then takes its own copy of the
// instance, with its own Customers and Facilities, over the one
// *graph.Graph (perCell). A cell may write its instance freely. The
// graph is what cells share; graph.Graph has no exported field and no
// method that writes one or returns one of its arrays, so another
// package cannot write through it.

// cellResult is the buffered output of one finished cell.
type cellResult struct {
	rows []Row
	err  error
}

// pool dispatches cells to at most `workers` concurrent goroutines and
// reassembles their rows deterministically.
type pool struct {
	sem     chan struct{}
	results []chan cellResult
}

// newPool sizes a pool from cfg.Workers (0 or negative: all CPUs).
func newPool(cfg Config) *pool {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &pool{sem: make(chan struct{}, w)}
}

// cell schedules fn. Rows passed to fn's emit are buffered and replayed
// by drain in submission order; fn must not retain emit past its return.
func (p *pool) cell(fn func(emit func(Row)) error) {
	ch := make(chan cellResult, 1)
	p.results = append(p.results, ch)
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		var rows []Row
		err := fn(func(r Row) { rows = append(rows, r) })
		ch <- cellResult{rows: rows, err: err}
	}()
}

// drain waits for every scheduled cell, replays rows in submission
// order, and returns the first error in that order (rows of cells after
// a failed one are dropped, matching serial semantics).
func (p *pool) drain(emit func(Row)) error {
	var firstErr error
	for _, ch := range p.results {
		res := <-ch
		if firstErr != nil {
			continue
		}
		if res.err != nil {
			firstErr = res.err
			continue
		}
		for _, r := range res.rows {
			emit(r)
		}
	}
	p.results = nil
	return firstErr
}

// lazy memoizes a deterministic builder so that concurrent cells share
// one generation; the first caller builds, everyone else blocks until
// the value (or error) is ready.
func lazy[T any](build func() (T, error)) func() (T, error) {
	var (
		once sync.Once
		val  T
		err  error
	)
	return func() (T, error) {
		once.Do(func() { val, err = build() })
		return val, err
	}
}

// perCell memoizes an instance builder like lazy and hands every caller
// its own copy of the instance: a new record with its own Customers and
// Facilities arrays over the same graph. The builder runs once; no
// caller sees another's writes.
func perCell(build func() (*data.Instance, error)) func() (*data.Instance, error) {
	shared := lazy(build)
	return func() (*data.Instance, error) {
		inst, err := shared()
		if err != nil {
			return nil, err
		}
		own := *inst
		own.Customers = slices.Clone(inst.Customers)
		own.Facilities = slices.Clone(inst.Facilities)
		return &own, nil
	}
}

// sweepPoint is one x-position of an experiment sweep: an axis label, a
// deterministic instance builder (runSweep runs it once per point), and
// the algorithms to run on it.
type sweepPoint struct {
	x     string
	xv    float64
	xvFn  func(*data.Instance) float64 // optional: derive xv from the built instance
	inst  func() (*data.Instance, error)
	algos []Algo // non-exact algorithms, one cell each
	exact bool   // include this point in the exact-solver chain
}

// xval resolves a point's axis value against its built instance.
func (pt sweepPoint) xval(inst *data.Instance) float64 {
	if pt.xvFn != nil {
		return pt.xvFn(inst)
	}
	return pt.xv
}

// runSweep dispatches one cell per (point, algorithm) plus a single
// serial exact-solver chain cell over the exact-enabled points; with
// exactDropout the chain stops after its first timeout (the paper's
// "Gurobi failed beyond ..." behaviour), which is a cross-point
// dependency and therefore cannot be parallelized. Exact rows are
// emitted after all heuristic rows of the sweep. Each point's builder
// runs once, and every cell, the chain included, solves its own copy of
// the instance (perCell).
func runSweep(exp string, points []sweepPoint, exactDropout bool, cfg Config, emit func(Row)) error {
	p := newPool(cfg)
	var chain []sweepPoint
	for _, pt := range points {
		pt.inst = perCell(pt.inst)
		for _, a := range pt.algos {
			p.cell(func(emit func(Row)) error {
				inst, err := pt.inst()
				if err != nil {
					return err
				}
				runAlgo(exp, pt.x, pt.xval(inst), a, inst, cfg, cfg.Seed, emit)
				return nil
			})
		}
		if pt.exact && !cfg.SkipExact {
			chain = append(chain, pt)
		}
	}
	if len(chain) > 0 {
		p.cell(func(emit func(Row)) error {
			for _, pt := range chain {
				inst, err := pt.inst()
				if err != nil {
					return err
				}
				timedOut := false
				runAlgo(exp, pt.x, pt.xval(inst), AlgoExact, inst, cfg, cfg.Seed, func(r Row) {
					timedOut = strings.HasPrefix(r.Note, "timeout")
					emit(r)
				})
				if timedOut && exactDropout {
					break
				}
			}
			return nil
		})
	}
	return p.drain(emit)
}
