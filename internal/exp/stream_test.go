package exp

import (
	"encoding/json"
	"testing"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// materializedPoint is the test oracle for RunPoint: the cells built by
// hand from materialized requests. Each seed's requests come from
// workload.Generate with the cell's seed and run through sched.Run, or
// through cluster.Run with the cell's churn plan and an autoscaler
// from exp.NewAutoscaler over the slice; the seeds average as RunGrid's
// do.
func materializedPoint(t *testing.T, p *Pipeline, specs []SchedSpec, rate, mslo float64, opts Options) map[string]sched.Result {
	t.Helper()
	sOpts, err := opts.schedOptions()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]sched.Result{}
	for _, spec := range specs {
		var rs []sched.Result
		for seed := 0; seed < opts.Seeds; seed++ {
			proc, err := NewTraffic(opts.Traffic, rate, opts.Requests, opts.Burst)
			if err != nil {
				t.Fatal(err)
			}
			reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{Requests: opts.Requests,
				RatePerSec: rate, SLOMultiplier: mslo, Seed: cellSeed(seed), Process: proc})
			if err != nil {
				t.Fatal(err)
			}
			if opts.Engines < 2 {
				res, err := sched.Run(spec.New(p), reqs, sOpts)
				if err != nil {
					t.Fatal(err)
				}
				rs = append(rs, res)
				continue
			}
			d, err := NewDispatcher(opts.Dispatch, p)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := NewRebalancer(opts.Rebalance, p)
			if err != nil {
				t.Fatal(err)
			}
			cfg := cluster.Config{Engines: opts.Engines, Dispatch: d, SignalInterval: opts.SignalInterval,
				Rebalance: rb, RebalanceInterval: opts.RebalanceInterval, MigrationCost: opts.MigrationCost,
				Sched: sOpts}
			if opts.Churn {
				horizon := time.Duration(2 * float64(opts.Requests) / rate * float64(time.Second))
				plan, err := cluster.GenChurn(opts.Engines, horizon, opts.MTBF, opts.MTTR, churnSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Churn, cfg.RetryMax = &plan, opts.RetryMax
			}
			if opts.Autoscale {
				cfg.Autoscale = NewAutoscaler(reqs, opts.ScaleMin, opts.ScaleMax, cluster.SparsityAwareLoad(p.LUT, p.Est))
				cfg.Autoscale.Curve = cluster.SparsityAwareCurve(p.LUT, p.Est)
			}
			res, err := cluster.Run(func(int) sched.Scheduler { return spec.New(p) }, reqs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, res.Result)
		}
		avg, err := sched.AverageResults(rs)
		if err != nil {
			t.Fatal(err)
		}
		avg.Scheduler = spec.Name
		out[spec.Name] = avg
	}
	return out
}

// TestStreamGridMatchesMaterialized: RunPoint, which streams every
// cell's arrivals, must be byte-identical to the materialized oracle
// above — same cells, same seeds, same floats — across single-engine,
// clustered, churning, migrating and autoscaled configurations, and
// across worker counts (streamed cells must stay a pure function of the
// seed index). This pins the exp-layer half of the streaming
// equivalence: workload.NewStream yields exactly the requests
// workload.Generate materializes, in the same order, per cell, and an
// autoscaled cell's first stream pass sums the same SLOs as the slice.
func TestStreamGridMatchesMaterialized(t *testing.T) {
	// The CLI smokes' protocol, so the migrating cell is exactly CI's
	// migration config.
	base := tiny()
	base.Seeds = 2
	base.Requests = 300
	base.ProfileSamples = 40
	base.EvalSamples = 150
	p, err := NewPipeline(workloadAttNN(), base, 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := append(StandardScheds()[:3], dystaOnly()...)
	for name, c := range map[string]struct {
		rate float64
		mut  func(*Options)
		// acted, when set, reports whether a result exercised the
		// mechanism the cell exists for; a cell that never did is vacuous.
		acted func(sched.Result) bool
	}{
		"single-engine": {30, func(*Options) {}, nil},
		"cluster":       {30, func(o *Options) { o.Engines = 3; o.Dispatch = "load" }, nil},
		"churning": {30, func(o *Options) {
			o.Engines = 3
			o.Churn = true
			o.MTBF = 500 * time.Millisecond
			o.MTTR = 50 * time.Millisecond
			o.RetryMax = 2
		}, nil},
		// CI's migration smoke: steal rounds every 1 ms at 200 µs a move,
		// on a churning cluster behind stale load signals.
		"migrating": {120, func(o *Options) {
			o.Engines = 4
			o.Dispatch = "load"
			o.SignalInterval = 20 * time.Millisecond
			o.Rebalance = "steal"
			o.RebalanceInterval = time.Millisecond
			o.MigrationCost = 200 * time.Microsecond
			o.Churn = true
			o.MTBF = time.Second
			o.MTTR = 150 * time.Millisecond
			o.RetryMax = 4
		}, func(r sched.Result) bool { return r.Migrations > 0 && r.Failovers > 0 }},
		"autoscaled-mmpp": {66, func(o *Options) {
			o.Engines = 4
			o.Dispatch = "load"
			o.SignalInterval = autoscaleSignalInterval
			o.Traffic = "mmpp"
			o.Burst = 8
			o.Autoscale = true
			o.ScaleMin, o.ScaleMax = 1, 4
		}, func(r sched.Result) bool { return r.ScaleUps > 0 }},
	} {
		opts := base
		c.mut(&opts)
		ref := materializedPoint(t, p, specs, c.rate, 10, opts)
		if c.acted != nil && !c.acted(ref["FCFS"]) {
			t.Errorf("%s: the cell never exercised its mechanism", name)
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			opts.Workers = workers
			res, err := p.RunPoint(specs, c.rate, 10, opts)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", name, workers, err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s (workers=%d): streamed grid diverges from materialized:\n%s\nvs\n%s",
					name, workers, got, want)
			}
		}
	}
}

// TestStreamOptionValidation: capture modes the engine does not know
// must fail loudly at Validate time, and bounded capture is valid.
func TestStreamOptionValidation(t *testing.T) {
	o := tiny()
	o.Capture = "sideways"
	if err := o.Validate(); err == nil {
		t.Error("unknown capture mode accepted")
	}
	o = tiny()
	o.Capture = "bounded"
	if err := o.Validate(); err != nil {
		t.Errorf("bounded capture rejected: %v", err)
	}
}

// TestStreamedClusterAllocatesNoPerRequestState pins the streaming data
// plane's allocations end to end: cluster.RunStream over a fresh
// workload.Stream on 16 Dysta engines behind load dispatch with bounded
// capture, stream-16x's configuration, at 20k and at 40k requests. Each
// run pays a fixed set-up (engines, schedulers, the event tree, the
// histograms, the stream's tables, and attachments and Tasks up to the
// peak in-flight count) plus whatever each request costs, so the
// difference of the two runs cancels the set-up and leaves the
// per-request cost: at most 0.01 allocations per extra request, under
// -race too.
func TestStreamedClusterAllocatesNoPerRequestState(t *testing.T) {
	p, err := NewPipeline(workloadAttNN(), tiny(), 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) float64 {
		return testing.AllocsPerRun(1, func() {
			src, err := workload.NewStream(p.Scenario, p.Eval, workload.GenConfig{
				Requests: n, RatePerSec: 400, SLOMultiplier: 10, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDispatcher("load", p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cluster.RunStream(func(int) sched.Scheduler { return core.NewDefault(p.LUT) }, src,
				cluster.Config{Engines: 16, Dispatch: d, Sched: sched.Options{BoundedCapture: true}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != n {
				t.Fatalf("streamed %d of %d requests", res.Requests, n)
			}
		})
	}
	const small, large = 20_000, 40_000
	a, b := run(small), run(large)
	if got := (b - a) / (large - small); got > 0.01 {
		t.Errorf("%.4f allocations per extra request (%v at %d requests, %v at %d), want <= 0.01",
			got, a, small, b, large)
	}
}

// TestRunHoldsOnlyInFlightRequests: sched.Run injects each request when
// it arrives, so a run of 2000 AttNN requests at 10 req/s, about a
// third of an engine's capacity, holds a handful of Tasks at a time. A
// run recycles every completed Task through its task list, last in
// first out, so its scheduler sees no more distinct Tasks arrive than
// the most the run held at once; injecting the whole slice up front
// gave every request a Task of its own.
func TestRunHoldsOnlyInFlightRequests(t *testing.T) {
	p, err := NewPipeline(workloadAttNN(), tiny(), 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
		Requests: 2000, RatePerSec: 10, SLOMultiplier: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range append(StandardScheds()[:1], dystaOnly()...) {
		s := taskCounter{Scheduler: spec.New(p), seen: map[*sched.Task]bool{}}
		if _, err := sched.Run(s, reqs, sched.Options{BoundedCapture: true}); err != nil {
			t.Fatal(err)
		}
		if n := len(s.seen); n >= 100 {
			t.Errorf("%s: one run of %d requests used %d distinct Tasks, want < 100", spec.Name, len(reqs), n)
		}
	}
}

// taskCounter records every distinct Task its scheduler sees arrive.
type taskCounter struct {
	sched.Scheduler
	seen map[*sched.Task]bool
}

func (c taskCounter) OnArrival(t *sched.Task, now time.Duration) {
	c.seen[t] = true
	c.Scheduler.OnArrival(t, now)
}
