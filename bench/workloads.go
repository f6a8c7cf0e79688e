package main

import (
	"fmt"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/core"
	"sparsedysta/internal/exp"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// mslo is the SLO multiplier every workload runs at (the paper's M_slo).
const mslo = 10

// sizing scales the workloads: request counts are divided by Div, and
// set-up profiles ProfileSamples and EvalSamples traces per model-pattern
// pair.
type sizing struct {
	Div                         int
	ProfileSamples, EvalSamples int
}

var (
	// fullSize is the measured scale, with exp.DefaultOptions' Phase 1.
	fullSize = sizing{Div: 1, ProfileSamples: 100, EvalSamples: 400}
	// quickSize runs about 1% of the requests, with exp.QuickOptions'
	// Phase 1.
	quickSize = sizing{Div: 100, ProfileSamples: 40, EvalSamples: 150}
)

// n scales a full-size request count.
func (s sizing) n(full int) int { return max(full/s.Div, 1) }

// outcome is what one workload run produced.
type outcome struct {
	// Result is the raw simulated output, digested and compared whole.
	Result any
	// Offered counts the simulated requests offered to the system.
	Offered int
	// ANTT, ViolPct and Goodput summarize Dysta's results (cluster-wide on
	// the cluster workloads).
	ANTT, ViolPct, Goodput float64
}

// benchWorkload is one input set of the benchmark.
type benchWorkload struct {
	Name string
	Why  string
	// Scenarios lists the Phase 1 pipelines set-up builds, in order.
	Scenarios []func() workload.Scenario
	// Requests is the number of simulated requests a run offers.
	Requests func(sizing) int
	// Run simulates the workload over the set-up pipelines, recording
	// per-layer costs in l when it is non-nil.
	Run func(ps []*exp.Pipeline, sz sizing, seed uint64, l *ledger) (outcome, error)
}

// workloads is the benchmark's workload table; BENCHMARK.json mirrors it.
var workloads = []benchWorkload{
	{
		Name: "paper-grid",
		Why: "the paper protocol at paper queue depths: Table 5 lineup plus Oracle on AttNN and CNN; " +
			"the only CNN/Eyeriss set-up and deep-model event path, no cluster layer",
		Scenarios: []func() workload.Scenario{workload.MultiAttNN, workload.MultiCNN},
		Requests: func(sz sizing) int {
			return 2 * 2 * len(gridSpecs(nil)) * gridOptions(sz).Seeds * gridOptions(sz).Requests
		},
		Run: runPaperGrid,
	},
	{
		Name: "overload-pick",
		Why: "one engine at 135% load, ready queues hundreds deep, scan picks " +
			"dominate wall time; the deep-queue counterpart of paper-grid",
		Scenarios: []func() workload.Scenario{workload.MultiAttNN},
		Requests:  func(sz sizing) int { return len(overloadScheds) * sz.n(5000) },
		Run:       runOverloadPick,
	},
	{
		Name: "stream-16x",
		Why: "the per-request data plane: lazy arrivals, load dispatch, event heap, " +
			"heap picks at depth ~1 and bounded capture over 16 engines; no control plane",
		Scenarios: []func() workload.Scenario{workload.MultiAttNN},
		Requests:  func(sz sizing) int { return sz.n(1_000_000) },
		Run:       runStream16x,
	},
	{
		Name: "serving-control",
		Why: "the control plane: SLO admission, work stealing, churn failover, autoscale " +
			"drain/join and full-capture aggregation on 4 engines under bursty traffic",
		Scenarios: []func() workload.Scenario{workload.MultiAttNN},
		Requests:  func(sz sizing) int { return sz.n(200_000) },
		Run:       runServingControl,
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// setupTimes splits set-up time by Phase 1 step.
type setupTimes struct {
	BuildStores, StatsSet time.Duration
}

// setup runs Phase 1 for each of the workload's scenarios: the trace
// stores, the profiling LUT and the baseline estimator, exactly what
// exp.NewPipeline builds, timed step by step.
func setup(w benchWorkload, sz sizing, seed uint64) ([]*exp.Pipeline, setupTimes, error) {
	var ps []*exp.Pipeline
	var st setupTimes
	for _, mk := range w.Scenarios {
		sc := mk()
		t0 := time.Now()
		prof, eval, err := workload.BuildStores(sc, sz.ProfileSamples, sz.EvalSamples, seed)
		if err != nil {
			return nil, st, err
		}
		t1 := time.Now()
		lut, err := trace.NewStatsSet(prof)
		if err != nil {
			return nil, st, err
		}
		est := sched.NewEstimator(lut)
		st.BuildStores += t1.Sub(t0)
		st.StatsSet += time.Since(t1)
		ps = append(ps, &exp.Pipeline{Scenario: sc, Prof: prof, Eval: eval, LUT: lut, Est: est})
	}
	return ps, st, nil
}

// arrivalSeed derives the request-stream seed from the benchmark seed,
// kept apart from the trace-store seeds BuildStores derives.
func arrivalSeed(seed uint64) uint64 { return 1000*seed + 17 }

// churnSeed derives the fault-injection seed from the benchmark seed.
func churnSeed(seed uint64) uint64 { return 1000*seed + 29 }

// gridOptions is the paper protocol (exp.DefaultOptions) on one worker.
func gridOptions(sz sizing) exp.Options {
	o := exp.DefaultOptions()
	o.Workers = 1
	o.Requests = sz.n(o.Requests)
	return o
}

// gridSpecs is the Table 5 lineup plus Oracle, each scheduler traced
// when l is non-nil.
func gridSpecs(l *ledger) []exp.SchedSpec {
	specs := exp.WithOracle(exp.StandardScheds())
	for i := range specs {
		mk := specs[i].New
		specs[i].New = func(p *exp.Pipeline) sched.Scheduler { return traceSched(mk(p), l) }
	}
	return specs
}

// runPaperGrid is Pipeline.RunGrid at AttNN 30/40 and CNN 3/4 req/s.
// The benchmark seed reaches it through the trace stores; the grid's
// per-cell arrival seeds are the paper protocol's own.
func runPaperGrid(ps []*exp.Pipeline, sz sizing, _ uint64, l *ledger) (outcome, error) {
	rates := [][]float64{exp.AttNNRates, exp.CNNRates}
	opts := gridOptions(sz)
	specs := gridSpecs(l)
	var grids [][]exp.PointResult
	var out outcome
	points := 0
	for i, p := range ps {
		g, err := p.RunGrid(specs, exp.RatePoints(rates[i], mslo), opts)
		if err != nil {
			return outcome{}, err
		}
		grids = append(grids, g)
		for _, pr := range g {
			for _, r := range pr.Results {
				out.Offered += r.Offered * opts.Seeds
			}
			d := pr.Results["Dysta"]
			out.ANTT += d.ANTT
			out.ViolPct += 100 * d.ViolationRate
			out.Goodput += d.Goodput
			points++
		}
	}
	out.ANTT /= float64(points)
	out.ViolPct /= float64(points)
	out.Goodput /= float64(points)
	out.Result = grids
	return out, nil
}

// overloadScheds are the schedulers overload-pick runs, in order.
var overloadScheds = []string{"Dysta", "PREMA", "SDRM3"}

// overloadLoad is overload-pick's offered load in engines: the stream's
// total isolated work over its arrival span.
const overloadLoad = 1.35

// runOverloadPick runs each of overloadScheds over one stream offering
// exactly 135% of one engine's capacity (about 40 req/s), with default
// engine options (scan picks). Queue depth, and with it the cost of a
// scan pick, grows with the load above 1, and 5000 sampled requests
// land anywhere between 1.30 and 1.36; so the stream is drawn at 40
// req/s, then drawn again at the rate that offers exactly overloadLoad.
// The second draw keeps every model and trace pick of the first (the
// exponential gap draws consume the same uniforms at any rate) and only
// rescales the arrivals.
func runOverloadPick(ps []*exp.Pipeline, sz sizing, seed uint64, l *ledger) (outcome, error) {
	p := ps[0]
	cfg := workload.GenConfig{Requests: sz.n(5000), RatePerSec: 40, SLOMultiplier: mslo, Seed: arrivalSeed(seed)}
	reqs, err := generate(p, cfg, l)
	if err != nil {
		return outcome{}, err
	}
	var work time.Duration
	for _, r := range reqs {
		work += r.Trace.Total()
	}
	if span := reqs[len(reqs)-1].Arrival; span > 0 {
		cfg.RatePerSec *= overloadLoad * span.Seconds() / work.Seconds()
	}
	if reqs, err = generate(p, cfg, l); err != nil {
		return outcome{}, err
	}
	byName := map[string]exp.SchedSpec{}
	for _, s := range exp.StandardScheds() {
		byName[s.Name] = s
	}
	results := make([]sched.Result, 0, len(overloadScheds))
	var out outcome
	for _, name := range overloadScheds {
		res, err := sched.Run(traceSched(byName[name].New(p), l), reqs, sched.Options{})
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", name, err)
		}
		if err := sched.CheckOutcomeConservation(res); err != nil {
			return outcome{}, fmt.Errorf("%s: %w", name, err)
		}
		out.Offered += res.Offered
		results = append(results, res)
	}
	out.Result = results
	out.ANTT, out.ViolPct, out.Goodput = results[0].ANTT, 100*results[0].ViolationRate, results[0].Goodput
	return out, nil
}

// runStream16x streams 1,000,000 lazily generated requests at 400 req/s
// (utilization 0.84) through 16 Dysta engines behind load dispatch, with
// bounded capture and scalable picks.
func runStream16x(ps []*exp.Pipeline, sz sizing, seed uint64, l *ledger) (outcome, error) {
	p := ps[0]
	src, err := workload.NewStream(p.Scenario, p.Eval, workload.GenConfig{
		Requests: sz.n(1_000_000), RatePerSec: 400, SLOMultiplier: mslo, Seed: arrivalSeed(seed)})
	if err != nil {
		return outcome{}, err
	}
	d, err := exp.NewDispatcher("load", p)
	if err != nil {
		return outcome{}, err
	}
	res, err := cluster.RunStream(dystaEngines(p, l), traceSource(src, l), cluster.Config{
		Engines:  16,
		Dispatch: traceDispatch(d, l),
		Sched:    sched.Options{BoundedCapture: true, ScalablePick: true},
	})
	if err != nil {
		return outcome{}, err
	}
	return clusterOutcome(res)
}

// runServingControl runs 200k MMPP requests (66 req/s, burst 8) through
// cluster.Run on 4 Dysta engines with every control-plane mechanism on:
// load dispatch over 5ms-stale signals, SLO admission, work stealing
// every 1ms at a 200µs migration cost, churn (MTBF 2s, MTTR 150ms,
// retry-max 4) and autoscaling between 1 and 4 engines.
func runServingControl(ps []*exp.Pipeline, sz sizing, seed uint64, l *ledger) (outcome, error) {
	const (
		engines = 4
		rate    = 66.0
	)
	p := ps[0]
	n := sz.n(200_000)
	proc, err := exp.NewTraffic("mmpp", rate, n, exp.DefaultBurst)
	if err != nil {
		return outcome{}, err
	}
	reqs, err := generate(p, workload.GenConfig{
		Requests: n, RatePerSec: rate, SLOMultiplier: mslo, Seed: arrivalSeed(seed), Process: proc}, l)
	if err != nil {
		return outcome{}, err
	}
	d, err := exp.NewDispatcher("load", p)
	if err != nil {
		return outcome{}, err
	}
	adm, err := exp.NewAdmission("slo", p)
	if err != nil {
		return outcome{}, err
	}
	rb, err := exp.NewRebalancer("steal", p)
	if err != nil {
		return outcome{}, err
	}
	// The horizon covers twice the expected stream span, as exp's churned
	// grids do, so the drain still sees failures.
	horizon := time.Duration(2 * float64(n) / rate * float64(time.Second))
	plan, err := cluster.GenChurn(engines, horizon, 2*time.Second, 150*time.Millisecond, churnSeed(seed))
	if err != nil {
		return outcome{}, err
	}
	scaler := exp.NewAutoscaler(reqs, 1, engines, cluster.SparsityAwareLoad(p.LUT, p.Est))
	scaler.Curve = cluster.SparsityAwareCurve(p.LUT, p.Est)
	res, err := cluster.Run(dystaEngines(p, l), reqs, cluster.Config{
		Engines:           engines,
		Dispatch:          traceDispatch(d, l),
		Admission:         traceAdmission(adm, l),
		SignalInterval:    5 * time.Millisecond,
		Rebalance:         traceRebalance(rb, l),
		RebalanceInterval: time.Millisecond,
		MigrationCost:     200 * time.Microsecond,
		Churn:             &plan,
		RetryMax:          4,
		Autoscale:         scaler,
	})
	if err != nil {
		return outcome{}, err
	}
	return clusterOutcome(res)
}

// dystaEngines builds one (traced) Dysta scheduler per cluster engine.
func dystaEngines(p *exp.Pipeline, l *ledger) func(int) sched.Scheduler {
	return func(int) sched.Scheduler { return traceSched(core.NewDefault(p.LUT), l) }
}

// clusterOutcome checks a cluster run's outcome accounting and
// summarizes it cluster-wide.
func clusterOutcome(res cluster.Result) (outcome, error) {
	if err := sched.CheckOutcomeConservation(res.Result); err != nil {
		return outcome{}, err
	}
	return outcome{
		Result:  res,
		Offered: res.Offered,
		ANTT:    res.ANTT,
		ViolPct: 100 * res.ViolationRate,
		Goodput: res.Goodput,
	}, nil
}
