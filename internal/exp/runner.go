package exp

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/traffic"
	"sparsedysta/internal/workload"
)

// This file is the parallel experiment runner: evaluation grids fan out
// over a worker pool, one goroutine-safe simulation cell per
// (operating point, scheduler, seed), and results merge back in
// deterministic order. Every stochastic input of a cell derives from its
// seed index alone (cellSeed), so a grid's output is bit-identical to the
// sequential reference path (RunSeeds + AverageResults) regardless of
// worker count or completion order — the determinism test in
// runner_test.go enforces this.

// Point is one operating point of an evaluation grid: an arrival rate and
// an SLO multiplier.
type Point struct {
	Rate float64
	MSLO float64
}

// PointResult pairs an operating point with its per-scheduler results,
// each averaged over the run's seeds.
type PointResult struct {
	Point   Point
	Results map[string]sched.Result
}

// cellSeed derives the workload RNG seed for one seed index, shared by
// the sequential and parallel paths (the paper's five-seed protocol).
func cellSeed(seed int) uint64 { return uint64(1000*seed) + 17 }

// churnSeed derives the fault-injection seed for one seed index. It is
// deliberately offset from cellSeed so the failure schedule is not
// correlated with the arrival stream of the same cell.
func churnSeed(seed int) uint64 { return uint64(1000*seed) + 29 }

// runCell executes one simulation cell: stream the seed index's
// requests from the generator and run spec's scheduler over them, so the
// cell holds only the requests in flight. With a nil w, the cell builds
// its stream, engine and scheduler from nothing (RunSeeds, the reference
// path); otherwise it re-arms w's stream, and a direct cell runs through
// w as the grid's spec si (gridWorker.run), cutting its Result's
// per-model breakdown from slot when slot is long enough. A cluster cell
// builds its engines and schedulers, and its breakdown, either way. The
// caller has checked the policy names (Options.checkPolicyNames) and
// read a replay's recording, rec (Options.recording; see
// gridWorker.traffic).
func (p *Pipeline) runCell(spec SchedSpec, pt Point, seed int, opts Options, rec *traffic.Replay, w *gridWorker, si int, slot []sched.ModelMetrics) (sched.Result, error) {
	proc, err := w.traffic(rec, opts, pt)
	if err != nil {
		return sched.Result{}, err
	}
	sOpts, err := opts.schedOptions()
	if err != nil {
		return sched.Result{}, err
	}
	gcfg := workload.GenConfig{
		Requests:      opts.Requests,
		RatePerSec:    pt.Rate,
		SLOMultiplier: pt.MSLO,
		Seed:          cellSeed(seed),
		Process:       proc,
	}
	// An autoscaled cell takes its thresholds from a first pass over the
	// cell's stream (a pure function of the seed index, so autoscaled
	// grids stay bit-identical for any -workers), drained before the
	// run's own stream is armed: both share gcfg.Process, which Reset
	// resets. The policy always reads the sparsity-aware load estimate —
	// its decisions should be as informed as the best dispatcher's,
	// whatever policy actually routes.
	shape := opts.Shape()
	var scaler *cluster.Autoscaler
	if opts.Autoscale {
		pass, err := w.stream(p, gcfg)
		if err != nil {
			return sched.Result{}, err
		}
		scaler = autoscalerFrom(pass, shape.ScaleMin, shape.ScaleMax, cluster.SparsityAwareLoad(p.LUT, p.Est))
		scaler.Curve = cluster.SparsityAwareCurve(p.LUT, p.Est)
	}
	src, err := w.stream(p, gcfg)
	if err != nil {
		return sched.Result{}, err
	}
	// The cluster path serves any run that needs the dispatch layer (see
	// ClusterShape).
	if shape.Clustered {
		d, err := NewDispatcher(opts.Dispatch, p)
		if err != nil {
			return sched.Result{}, err
		}
		adm, err := NewAdmission(opts.Admission, p)
		if err != nil {
			return sched.Result{}, err
		}
		rbp, err := NewRebalancer(opts.Rebalance, p)
		if err != nil {
			return sched.Result{}, err
		}
		cfg := cluster.Config{
			Engines:           shape.Engines,
			Specs:             opts.EngineSpecs,
			Dispatch:          d,
			Admission:         adm,
			SignalInterval:    opts.SignalInterval,
			Rebalance:         rbp,
			RebalanceInterval: opts.RebalanceInterval,
			MigrationCost:     opts.MigrationCost,
			MigrationBudget:   opts.MigrationBudget,
			Sched:             sOpts,
			Autoscale:         scaler,
		}
		if opts.Churn {
			// The fail/recover schedule is a pure function of the seed
			// index, the engine count, and the operating point — never of
			// worker scheduling — so churned grids stay bit-identical for
			// any -workers. The horizon covers twice the expected stream
			// span so late arrivals still see churn through the drain.
			if opts.MTBF <= 0 || opts.MTTR <= 0 {
				return sched.Result{}, fmt.Errorf(
					"exp: churn needs positive MTBF and MTTR (got %v, %v)", opts.MTBF, opts.MTTR)
			}
			horizon := time.Duration(2 * float64(opts.Requests) / pt.Rate * float64(time.Second))
			plan, err := cluster.GenChurn(shape.Engines, horizon, opts.MTBF, opts.MTTR, churnSeed(seed))
			if err != nil {
				return sched.Result{}, fmt.Errorf("exp: generating churn plan: %w", err)
			}
			cfg.Churn = &plan
			cfg.RetryMax = opts.RetryMax
		}
		cres, err := cluster.RunStream(func(int) sched.Scheduler { return spec.New(p) }, src, cfg)
		if err != nil {
			return sched.Result{}, fmt.Errorf("exp: running %s on %d engines: %w",
				spec.Name, shape.Engines, err)
		}
		return cres.Result, nil
	}
	var res sched.Result
	if w == nil {
		res, err = sched.RunStream(spec.New(p), src, sOpts)
	} else {
		res, err = w.run(p, spec, si, src, sOpts, slot)
	}
	if err != nil {
		return sched.Result{}, fmt.Errorf("exp: running %s: %w", spec.Name, err)
	}
	return res, nil
}

// gridWorker is what one RunGrid worker keeps from cell to cell: a
// request stream, which every cell re-arms, a replay cursor, a
// sched.Runner, whose engine every direct cell re-arms, and per spec (by
// index) the scheduler the spec's last cell emptied. It belongs to its
// worker and dies with its RunGrid call, so no run-length buffer
// outlives the grid that grew it.
type gridWorker struct {
	src    workload.Stream
	replay traffic.Replay
	runner sched.Runner
	scheds []sched.Scheduler
}

// traffic builds a cell's arrival process. With a recording, rec, the
// cell replays its shared, read-only gaps through a cursor of its own:
// the worker's, or with a nil w a new one (the stream's Reset rewinds
// it). Without one, NewTraffic builds the process for the cell's rate
// and length.
func (w *gridWorker) traffic(rec *traffic.Replay, opts Options, pt Point) (traffic.Process, error) {
	switch {
	case rec == nil:
		return NewTraffic(opts.Traffic, pt.Rate, opts.Requests, opts.Burst)
	case w == nil:
		return &traffic.Replay{Source: rec.Source, Gaps: rec.Gaps}, nil
	}
	w.replay = traffic.Replay{Source: rec.Source, Gaps: rec.Gaps}
	return &w.replay, nil
}

// stream arms a cell's request stream for cfg: the worker's own,
// re-armed in place, or with a nil w (RunSeeds, the reference path) a
// new one.
func (w *gridWorker) stream(p *Pipeline, cfg workload.GenConfig) (*workload.Stream, error) {
	var s *workload.Stream
	var err error
	if w == nil {
		s, err = workload.NewStream(p.Scenario, p.Eval, cfg)
	} else {
		s, err = &w.src, w.src.Reset(p.Scenario, p.Eval, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: generating %s workload: %w", p.Scenario.Name, err)
	}
	return s, nil
}

// run runs a direct cell of spec, the grid's spec si, on the worker's
// engine, with the Result's per-model breakdown cut from slot
// (sched.Runner.RunInto). The scheduler is the one the spec's last cell
// left, or a new one. Only a sched.TaskExtractor whose run finished
// without error is kept for the spec's next cell: the extractor contract
// promises that an emptied scheduler schedules like a new one, and a
// drained run empties it. Any other scheduler may keep run state, so its
// spec gets a new one per cell.
func (w *gridWorker) run(p *Pipeline, spec SchedSpec, si int, src sched.RequestSource, opts sched.Options, slot []sched.ModelMetrics) (sched.Result, error) {
	s := w.scheds[si]
	w.scheds[si] = nil
	if s == nil {
		s = spec.New(p)
	}
	res, err := w.runner.RunInto(s, src, opts, slot)
	if _, ok := s.(sched.TaskExtractor); ok && err == nil {
		w.scheds[si] = s
	}
	return res, err
}

// RunGrid evaluates every scheduler at every operating point, averaging
// over opts.Seeds seeds per cell. Cells run concurrently on
// opts.Workers goroutines (default: GOMAXPROCS); the returned slice is
// ordered as `points` and each map is keyed by scheduler name. The
// pipeline's stores, LUT and estimator are shared read-only across
// workers; each worker re-arms one request stream for all its cells and
// recycles its direct cells' engine and schedulers (gridWorker), without
// changing a result. A replayed trace is read once, before any cell.
// The averages' per-model breakdowns are cut from one slab per call,
// like the direct cells' (runCells).
func (p *Pipeline) RunGrid(specs []SchedSpec, points []Point, opts Options) ([]PointResult, error) {
	slab, err := p.runCells(specs, points, opts)
	if err != nil {
		return nil, err
	}
	models := modelCount(p.Scenario)
	breakdowns := make([]sched.ModelMetrics, len(points)*len(specs)*models)
	out := make([]PointResult, len(points))
	for pi, pt := range points {
		m := make(map[string]sched.Result, len(specs))
		for si, spec := range specs {
			slot := breakdownOf(breakdowns, pi*len(specs)+si, models)
			avg, err := sched.AverageResultsInto(seedsOf(slab, pi, si, len(specs), opts.Seeds), slot)
			if err != nil {
				return nil, fmt.Errorf("exp: %s at point %d: %w", spec.Name, pi, err)
			}
			avg.Scheduler = spec.Name
			m[spec.Name] = avg
		}
		out[pi] = PointResult{Point: pt, Results: m}
	}
	return out, nil
}

// runCells runs every (point, spec, seed) cell of a grid on the worker
// pool and returns the slab of their results, one slice for the whole
// grid: seedsOf reads a (point, spec) pair's seeds from it. A direct
// cell's per-model breakdown is cut from a second slab, one slot of
// modelCount entries per cell, so a warm direct cell allocates nothing.
// Workers write disjoint slots, so both slabs are the same for any
// worker count.
func (p *Pipeline) runCells(specs []SchedSpec, points []Point, opts Options) ([]sched.Result, error) {
	type cell struct{ pi, si, seed int }
	if opts.Seeds <= 0 {
		return nil, fmt.Errorf("exp: RunGrid with %d seeds", opts.Seeds)
	}
	if err := opts.checkPolicyNames(); err != nil {
		return nil, err
	}
	rec, err := opts.recording()
	if err != nil {
		return nil, err
	}

	total := len(points) * len(specs) * opts.Seeds
	slab := make([]sched.Result, total)
	models := slotModels(p.Scenario, opts)
	breakdowns := make([]sched.ModelMetrics, total*models)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	jobs := make(chan cell)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			worker := gridWorker{scheds: make([]sched.Scheduler, len(specs))}
			for c := range jobs {
				if failed() {
					continue // drain remaining jobs after a failure
				}
				i := (c.pi*len(specs)+c.si)*opts.Seeds + c.seed
				res, err := p.runCell(specs[c.si], points[c.pi], c.seed, opts, rec, &worker, c.si,
					breakdownOf(breakdowns, i, models))
				if err != nil {
					setErr(err)
					continue
				}
				slab[i] = res
			}
		}()
	}
	for pi := range points {
		for si := range specs {
			for s := 0; s < opts.Seeds; s++ {
				jobs <- cell{pi, si, s}
			}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return slab, nil
}

// seedsOf returns the per-seed results of spec si at point pi from a
// grid's slab of nspecs specs and seeds seeds, capped so that appending
// to it cannot overwrite the next pair's.
func seedsOf(slab []sched.Result, pi, si, nspecs, seeds int) []sched.Result {
	i := (pi*nspecs + si) * seeds
	return slab[i : i+seeds : i+seeds]
}

// breakdownOf returns the i-th slot of models entries of a breakdown
// slab, capped so that appending to it cannot overwrite the next slot.
func breakdownOf(slab []sched.ModelMetrics, i, models int) []sched.ModelMetrics {
	return slab[i*models : (i+1)*models : (i+1)*models]
}

// slotModels sizes the breakdown slot of a grid cell of sc run under
// opts: modelCount(sc) for a direct cell, and 0 for a clustered one,
// which builds its breakdown itself.
func slotModels(sc workload.Scenario, opts Options) int {
	if opts.Shape().Clustered {
		return 0
	}
	return modelCount(sc)
}

// modelCount counts the distinct model names among sc's entries: every
// request a cell of sc serves is one of them, so a run's breakdown, and
// an average of such runs', has at most this many entries.
func modelCount(sc workload.Scenario) int {
	n := 0
	for i, e := range sc.Entries {
		if e.Model != nil && !slices.ContainsFunc(sc.Entries[:i], func(prev workload.Entry) bool {
			return prev.Model != nil && prev.Model.Name == e.Model.Name
		}) {
			n++
		}
	}
	return n
}

// RatePoints builds a grid over arrival rates at one SLO multiplier.
func RatePoints(rates []float64, mslo float64) []Point {
	pts := make([]Point, len(rates))
	for i, r := range rates {
		pts[i] = Point{Rate: r, MSLO: mslo}
	}
	return pts
}
