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

// TestStreamGridMatchesMaterialized: a grid run with streaming arrivals
// must be byte-identical to the materialized path — same cells, same
// seeds, same floats — across single-engine, clustered and churning
// configurations, and across worker counts (streamed cells must stay a
// pure function of the seed index). This pins the exp-layer half of the
// streaming equivalence: workload.NewStream yields exactly the requests
// workload.Generate materializes, in the same order, per cell.
func TestStreamGridMatchesMaterialized(t *testing.T) {
	base := tiny()
	base.Seeds = 2
	p, err := NewPipeline(workloadAttNN(), base, 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := StandardScheds()[:3]
	for name, mut := range map[string]func(*Options){
		"single-engine": func(*Options) {},
		"cluster":       func(o *Options) { o.Engines = 3; o.Dispatch = "load" },
		"churning": func(o *Options) {
			o.Engines = 3
			o.Churn = true
			o.MTBF = 500 * time.Millisecond
			o.MTTR = 50 * time.Millisecond
			o.RetryMax = 2
		},
	} {
		opts := base
		mut(&opts)
		want, err := p.RunPoint(specs, 30, 10, opts)
		if err != nil {
			t.Fatalf("%s materialized: %v", name, err)
		}
		for _, workers := range []int{1, 4} {
			streamed := opts
			streamed.Stream = true
			streamed.Workers = workers
			got, err := p.RunPoint(specs, 30, 10, streamed)
			if err != nil {
				t.Fatalf("%s streamed (workers=%d): %v", name, workers, err)
			}
			a, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Errorf("%s (workers=%d): streamed grid diverges from materialized:\n%s\nvs\n%s",
					name, workers, b, a)
			}
		}
	}
}

// TestStreamOptionValidation: the option combinations the streaming path
// cannot honor must fail loudly at Validate time.
func TestStreamOptionValidation(t *testing.T) {
	o := tiny()
	o.Stream = true
	o.Autoscale = true
	o.Engines = 4
	if err := o.Validate(); err == nil {
		t.Error("-stream with -autoscale accepted")
	}
	o = tiny()
	o.Capture = "sideways"
	if err := o.Validate(); err == nil {
		t.Error("unknown capture mode accepted")
	}
	o = tiny()
	o.Stream = true
	o.Capture = "bounded"
	if err := o.Validate(); err != nil {
		t.Errorf("valid streaming options rejected: %v", err)
	}
}

// TestStreamedClusterAllocatesNoPerRequestState pins the streaming data
// plane's allocations end to end: cluster.RunStream over a fresh
// workload.Stream on 16 Dysta engines behind load dispatch with bounded
// capture, stream-16x's configuration, at 20k and at 40k requests. Each
// run pays a fixed set-up (engines, schedulers, the event tree, the
// histograms, the stream's tables, and attachments and pooled Tasks up
// to the peak in-flight count) plus whatever each request costs, so the
// difference of the two runs cancels the set-up and leaves the
// per-request cost: at most 0.01 allocations per extra request. Under
// -race, sync.Pool drops a quarter of its Puts at random, so about a
// quarter of the Tasks are allocated afresh.
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
	slack := 0.0
	if raceEnabled {
		slack = 0.3
	}
	a, b := run(small), run(large)
	if got := (b - a) / (large - small); got > 0.01+slack {
		t.Errorf("%.4f allocations per extra request (%v at %d requests, %v at %d), want <= %.2f",
			got, a, small, b, large, 0.01+slack)
	}
}
