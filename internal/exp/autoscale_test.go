package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/traffic"
)

// autoscaleTestOpts is the shared cell of the autoscale exp-layer tests:
// the experiment's operating point (half the 4-engine knee, stale
// signals) at CI scale.
func autoscaleTestOpts() Options {
	o := tiny()
	o.Seeds = 2
	o.Requests = 300
	o.ProfileSamples = 40
	o.EvalSamples = 150
	o.Engines = 4
	o.Dispatch = "load"
	o.SignalInterval = autoscaleSignalInterval
	return o
}

// TestTrafficPoissonBitIdentical is the exp-layer end of the neutral-knob
// chain: -traffic poisson must reproduce the default (inline-draw)
// results byte for byte, on both the direct and the cluster path.
func TestTrafficPoissonBitIdentical(t *testing.T) {
	for _, engines := range []int{1, 3} {
		opts := tiny()
		opts.Engines = engines
		p, err := NewPipeline(workloadAttNN(), opts, 7)
		if err != nil {
			t.Fatal(err)
		}
		dysta := dystaOnly()
		want, err := p.RunPoint(dysta, 60, 10, opts)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Traffic = "poisson"
		got, err := p.RunPoint(dysta, 60, 10, o)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(got)
		if string(a) != string(b) {
			t.Errorf("engines=%d: -traffic poisson changed results:\ndefault: %s\npoisson: %s", engines, a, b)
		}
	}
}

// TestTrafficReplayRoundTrip drives a run from a recorded arrival trace:
// write a CSV, replay it through the full exp pipeline, and check the
// request count survives.
func TestTrafficReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arrivals.csv")
	arrivals := make([]time.Duration, 40)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * 10 * time.Millisecond
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := traffic.WriteArrivalsCSV(f, arrivals); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	opts := tiny()
	opts.Requests = 40
	opts.Traffic = "replay:" + path
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := p.RunPoint(dystaOnly(), 60, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs["Dysta"].Requests; got != 40 {
		t.Errorf("replayed run completed %d requests, want 40", got)
	}
}

// TestAutoscaleGridDeterministicAcrossWorkers: the autoscaled mmpp grid
// must be bit-identical for any -workers value — traffic shape and
// autoscaler thresholds both derive from the cell's seed index alone.
func TestAutoscaleGridDeterministicAcrossWorkers(t *testing.T) {
	opts := autoscaleTestOpts()
	opts.Traffic = "mmpp"
	opts.Burst = 8
	opts.Autoscale = true
	opts.ScaleMin, opts.ScaleMax = 1, 4
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	dysta := dystaOnly()
	seq := opts
	seq.Workers = 1
	want, err := p.RunPoint(dysta, 66, 10, seq)
	if err != nil {
		t.Fatal(err)
	}
	par := opts
	par.Workers = 8
	got, err := p.RunPoint(dysta, 66, 10, par)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Errorf("autoscaled grid diverges across worker counts:\nworkers=1: %s\nworkers=8: %s", a, b)
	}
	if r := got["Dysta"]; r.ScaleUps == 0 {
		t.Error("autoscaler never acted; the determinism check is vacuous")
	}
}

// TestAutoscaleFrontier is the experiment's headline claim as an
// assertion: under bursty (mmpp) traffic at half the cluster's knee
// capacity, the SLO-driven autoscaler holds at least 95% of the
// fixed-max arm's goodput while billing measurably fewer engine-seconds.
func TestAutoscaleFrontier(t *testing.T) {
	opts := autoscaleTestOpts()
	opts.Traffic = "mmpp"
	opts.Burst = 8
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	dysta := dystaOnly()
	fixed, err := p.RunPoint(dysta, 66, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Autoscale = true
	o.ScaleMin, o.ScaleMax = 1, 4
	scaled, err := p.RunPoint(dysta, 66, 10, o)
	if err != nil {
		t.Fatal(err)
	}
	f, s := fixed["Dysta"], scaled["Dysta"]
	if s.ScaleUps == 0 || s.ScaleDowns == 0 {
		t.Fatalf("autoscaler never cycled (%d ups, %d downs); the frontier claim is untestable here",
			s.ScaleUps, s.ScaleDowns)
	}
	if s.Goodput < 0.95*f.Goodput {
		t.Errorf("autoscaled goodput %.2f < 95%% of fixed-max %.2f", s.Goodput, f.Goodput)
	}
	if s.EngineSeconds > 0.9*f.EngineSeconds {
		t.Errorf("autoscaled run billed %.2f engine-seconds, want <= 90%% of fixed-max %.2f",
			s.EngineSeconds, f.EngineSeconds)
	}
}

// TestNewTrafficNames pins the name -> process mapping and its failure
// modes.
func TestNewTrafficNames(t *testing.T) {
	if p, err := NewTraffic("", 30, 100, 0); err != nil || p != nil {
		t.Errorf("empty name: got (%v, %v), want (nil, nil)", p, err)
	}
	for name, want := range map[string]string{
		"poisson": "poisson",
		"mmpp":    "mmpp",
		"diurnal": "diurnal",
	} {
		p, err := NewTraffic(name, 30, 100, 0)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("%s built process %q", name, p.Name())
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: built invalid process: %v", name, err)
		}
	}
	for _, bad := range []string{"uniform", "replay:/no/such/file.csv"} {
		if _, err := NewTraffic(bad, 30, 100, 0); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
	if _, err := NewTraffic("mmpp", 30, 100, 0.5); err == nil {
		t.Error("burst ratio below 1 accepted")
	}
}

// TestOptionsValidate is the satellite CLI check: inconsistent flag
// combinations fail with a clear error instead of a silent no-op.
func TestOptionsValidate(t *testing.T) {
	ok := func(mod func(*Options)) Options {
		o := tiny()
		mod(&o)
		return o
	}
	good := map[string]Options{
		"defaults":        ok(func(o *Options) {}),
		"poisson":         ok(func(o *Options) { o.Traffic = "poisson" }),
		"mmpp burst":      ok(func(o *Options) { o.Traffic = "mmpp"; o.Burst = 4 }),
		"autoscale":       ok(func(o *Options) { o.Engines = 4; o.Autoscale = true }),
		"autoscale range": ok(func(o *Options) { o.Engines = 4; o.Autoscale = true; o.ScaleMin = 2; o.ScaleMax = 3 }),
		"steal": ok(func(o *Options) {
			o.Rebalance = "steal"
			o.RebalanceInterval = time.Millisecond
			o.MigrationCost = 200 * time.Microsecond
			o.MigrationBudget = 5
		}),
		"none policy":     ok(func(o *Options) { o.Rebalance = "none" }),
		"signal interval": ok(func(o *Options) { o.SignalInterval = time.Millisecond }),
	}
	for name, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	// Each rejection must name the flag a CLI user has to fix.
	bad := map[string]struct {
		o    Options
		flag string
	}{
		"burst without mmpp":        {ok(func(o *Options) { o.Burst = 4 }), "-burst"},
		"burst with poisson":        {ok(func(o *Options) { o.Traffic = "poisson"; o.Burst = 4 }), "-burst"},
		"burst below one":           {ok(func(o *Options) { o.Traffic = "mmpp"; o.Burst = 0.5 }), "-burst"},
		"unknown traffic":           {ok(func(o *Options) { o.Traffic = "uniform" }), "-traffic"},
		"unreadable replay":         {ok(func(o *Options) { o.Traffic = "replay:/no/such/file.csv" }), "-traffic"},
		"unknown capture":           {ok(func(o *Options) { o.Capture = "sampled" }), "-capture"},
		"stream with autoscale":     {ok(func(o *Options) { o.Engines = 4; o.Stream = true; o.Autoscale = true }), "-stream"},
		"scale-min without scaler":  {ok(func(o *Options) { o.Engines = 4; o.ScaleMin = 2 }), "-scale-min"},
		"scale-max without scaler":  {ok(func(o *Options) { o.Engines = 4; o.ScaleMax = 2 }), "-scale-max"},
		"scale-min over scale-max":  {ok(func(o *Options) { o.Engines = 4; o.Autoscale = true; o.ScaleMin = 3; o.ScaleMax = 2 }), "-scale-min"},
		"scale-max over cluster":    {ok(func(o *Options) { o.Engines = 4; o.Autoscale = true; o.ScaleMax = 8 }), "-scale-max"},
		"scale-max over hetero mix": {ok(func(o *Options) { _, o.EngineSpecs, _ = ParseEngines("2x1"); o.Autoscale = true; o.ScaleMax = 3 }), "-scale-max"},
		"policy without interval":   {ok(func(o *Options) { o.Rebalance = "steal" }), "-rebalance-interval"},
		"interval without policy":   {ok(func(o *Options) { o.RebalanceInterval = time.Millisecond }), "-rebalance-interval"},
		"cost without policy":       {ok(func(o *Options) { o.MigrationCost = time.Millisecond }), "-migration-cost"},
		"budget with none policy":   {ok(func(o *Options) { o.Rebalance = "none"; o.MigrationBudget = 3 }), "-migration-budget"},
		"negative signal interval":  {ok(func(o *Options) { o.SignalInterval = -5 * time.Millisecond }), "-signal-interval"},
		"negative rebalance interval": {ok(func(o *Options) {
			o.Rebalance = "steal"
			o.RebalanceInterval = -time.Millisecond
		}), "-rebalance-interval"},
		"negative migration cost": {ok(func(o *Options) {
			o.Rebalance = "steal"
			o.RebalanceInterval = time.Millisecond
			o.MigrationCost = -5 * time.Millisecond
		}), "-migration-cost"},
		"negative migration budget": {ok(func(o *Options) {
			o.Rebalance = "steal"
			o.RebalanceInterval = time.Millisecond
			o.MigrationBudget = -1
		}), "-migration-budget"},
	}
	for name, c := range bad {
		err := c.o.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s: rejection %q does not name %s", name, err, c.flag)
		}
	}
}
