package exp

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/traffic"
	"sparsedysta/internal/workload"
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

// TestNewAutoscalerEmptyStream: an empty request slice has no mean SLO,
// so NewAutoscaler must return zero thresholds instead of dividing by
// zero, and a run using them must fail with the cluster's threshold
// error.
func TestNewAutoscalerEmptyStream(t *testing.T) {
	p, err := NewPipeline(workloadAttNN(), tiny(), 7)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAutoscaler(nil, 1, 2, cluster.SparsityAwareLoad(p.LUT, p.Est))
	if a.Up != 0 || a.Down != 0 || a.Cooldown != 0 {
		t.Fatalf("empty stream gave thresholds up %v down %v cooldown %v, want zero", a.Up, a.Down, a.Cooldown)
	}
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{Requests: 10, RatePerSec: 30, SLOMultiplier: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs,
		cluster.Config{Engines: 2, Autoscale: a})
	if err == nil || !strings.Contains(err.Error(), "Up threshold") {
		t.Fatalf("run with zero thresholds returned %v, want the Up threshold error", err)
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
		"sequential":      ok(func(o *Options) { o.Workers = 1 }),
		"every policy": ok(func(o *Options) {
			o.Engines = 2
			o.Dispatch = "blind-load"
			o.Admission = "queue-cap:3"
			o.Rebalance = "shed"
			o.RebalanceInterval = time.Millisecond
		}),
		"slo admission": ok(func(o *Options) { o.Engines = 2; o.Dispatch = "load"; o.Admission = "slo" }),
		"churn": ok(func(o *Options) {
			o.Churn = true
			o.MTBF = time.Second
			o.MTTR = 100 * time.Millisecond
			o.RetryMax = 3
		}),
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
		"zero seeds":                 {ok(func(o *Options) { o.Seeds = 0 }), "-seeds"},
		"negative seeds":             {ok(func(o *Options) { o.Seeds = -1 }), "-seeds"},
		"zero requests":              {ok(func(o *Options) { o.Requests = 0 }), "-requests"},
		"negative requests":          {ok(func(o *Options) { o.Requests = -5 }), "-requests"},
		"negative workers":           {ok(func(o *Options) { o.Workers = -2 }), "-workers"},
		"zero profile samples":       {ok(func(o *Options) { o.ProfileSamples = 0 }), "-profile-samples"},
		"zero eval samples":          {ok(func(o *Options) { o.EvalSamples = 0 }), "-eval-samples"},
		"negative eval samples":      {ok(func(o *Options) { o.EvalSamples = -1 }), "-eval-samples"},
		"unknown dispatch":           {ok(func(o *Options) { o.Engines = 2; o.Dispatch = "bogus" }), "-dispatch"},
		"unknown dispatch, 1 engine": {ok(func(o *Options) { o.Dispatch = "bogus" }), "-dispatch"},
		"unknown admission":          {ok(func(o *Options) { o.Engines = 2; o.Admission = "bogus" }), "-admission"},
		"zero queue-cap":             {ok(func(o *Options) { o.Engines = 2; o.Admission = "queue-cap:0" }), "-admission"},
		"unknown rebalance": {ok(func(o *Options) {
			o.Engines = 2
			o.Rebalance = "bogus"
			o.RebalanceInterval = time.Millisecond
		}), "-rebalance"},
		"burst without mmpp":        {ok(func(o *Options) { o.Burst = 4 }), "-burst"},
		"burst with poisson":        {ok(func(o *Options) { o.Traffic = "poisson"; o.Burst = 4 }), "-burst"},
		"burst below one":           {ok(func(o *Options) { o.Traffic = "mmpp"; o.Burst = 0.5 }), "-burst"},
		"burst NaN":                 {ok(func(o *Options) { o.Traffic = "mmpp"; o.Burst = math.NaN() }), "-burst"},
		"burst infinite":            {ok(func(o *Options) { o.Traffic = "mmpp"; o.Burst = math.Inf(1) }), "-burst"},
		"unknown traffic":           {ok(func(o *Options) { o.Traffic = "uniform" }), "-traffic"},
		"unreadable replay":         {ok(func(o *Options) { o.Traffic = "replay:/no/such/file.csv" }), "-traffic"},
		"unknown capture":           {ok(func(o *Options) { o.Capture = "sampled" }), "-capture"},
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
		"churn without mtbf":       {ok(func(o *Options) { o.Churn = true; o.MTTR = time.Millisecond }), "-mtbf"},
		"churn with negative mttr": {ok(func(o *Options) { o.Churn = true; o.MTBF = time.Second; o.MTTR = -time.Millisecond }), "-mttr"},
		"negative retry-max":       {ok(func(o *Options) { o.Churn = true; o.MTBF = time.Second; o.MTTR = time.Millisecond; o.RetryMax = -1 }), "-retry-max"},
		"retry-max without churn":  {ok(func(o *Options) { o.RetryMax = 3 }), "-retry-max"},
		"mtbf without churn":       {ok(func(o *Options) { o.MTBF = time.Second }), "-mtbf"},
		"mttr without churn":       {ok(func(o *Options) { o.MTTR = time.Millisecond }), "-mttr"},
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

// TestRegisterFlagsChurnModel: the -mtbf and -mttr defaults reach the
// options only under -churn, whichever order the flags come in, while an
// explicit value without -churn reaches Validate, which rejects it by
// name.
func TestRegisterFlagsChurnModel(t *testing.T) {
	for _, c := range []struct {
		args       []string
		mtbf, mttr time.Duration
		reject     string
	}{
		{nil, 0, 0, ""},
		{[]string{"-churn"}, time.Second, 100 * time.Millisecond, ""},
		{[]string{"-churn", "-mttr", "5ms"}, time.Second, 5 * time.Millisecond, ""},
		{[]string{"-mttr", "5ms", "-churn"}, time.Second, 5 * time.Millisecond, ""},
		{[]string{"-mtbf", "2s"}, 2 * time.Second, 0, "-mtbf"},
		{[]string{"-mttr", "5ms"}, 0, 5 * time.Millisecond, "-mttr"},
		{[]string{"-churn", "-mtbf", "0"}, 0, 100 * time.Millisecond, "-mtbf"},
		{[]string{"-mtbf", "0", "-churn"}, 0, 100 * time.Millisecond, "-mtbf"},
		{[]string{"-churn", "-churn=false"}, 0, 0, ""},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		o := tiny()
		o.RegisterFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if o.MTBF != c.mtbf || o.MTTR != c.mttr {
			t.Errorf("%v: MTBF %v, MTTR %v; want %v, %v", c.args, o.MTBF, o.MTTR, c.mtbf, c.mttr)
		}
		err := o.Validate()
		if c.reject == "" && err != nil {
			t.Errorf("%v: rejected: %v", c.args, err)
		}
		if c.reject != "" && (err == nil || !strings.Contains(err.Error(), c.reject)) {
			t.Errorf("%v: rejection %v does not name %s", c.args, err, c.reject)
		}
	}
}
