package cluster

import (
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// unprofiledStream builds a stream whose requests all carry a key the LUT
// never profiled (same model, different pattern), plus the LUT/estimator
// built from the profiled pattern only.
func unprofiledStream(n int) ([]*workload.Request, *sched.Estimator, *trace.StatsSet) {
	store := trace.NewStore()
	profiled := trace.NewKey("m", sparsity.Dense)
	var profiles []trace.SampleTrace
	for p := 0; p < 3; p++ {
		tr := trace.SampleTrace{
			LayerLatency:  []time.Duration{2 * time.Millisecond, 3 * time.Millisecond},
			LayerSparsity: []float64{0.5, 0.5},
		}
		profiles = append(profiles, tr)
	}
	store.Add(profiled, profiles)
	set, err := trace.NewStatsSet(store)
	if err != nil {
		panic(err)
	}
	// The store holds its own copies, keyed as profiled; the requests'
	// traces carry the unprofiled key.
	unprofiled := trace.NewKey("m", sparsity.BlockNM)
	for i := range profiles {
		profiles[i].Key = unprofiled
	}
	reqs := make([]*workload.Request, n)
	for i := range reqs {
		tr := &profiles[i%len(profiles)]
		reqs[i] = &workload.Request{
			ID:      i,
			Trace:   tr,
			Arrival: time.Duration(i) * 500 * time.Microsecond,
			SLO:     time.Second,
		}
	}
	return reqs, sched.NewEstimator(set), set
}

// rekeyed returns a copy of r whose trace is a copy of r's under key k.
func rekeyed(r *workload.Request, k trace.Key) *workload.Request {
	tr := *r.Trace
	tr.Key = k
	c := *r
	c.Trace = &tr
	return &c
}

// TestSparsityAwareLoadUnknownKeyFallback: an unprofiled model-pattern
// pair must produce the pattern-blind estimate, never zero — a zero
// estimate made LeastLoad treat unprofiled requests as free work.
func TestSparsityAwareLoadUnknownKeyFallback(t *testing.T) {
	reqs, est, lut := unprofiledStream(1)
	load := SparsityAwareLoad(lut, est)
	e := sched.NewEngine(sched.NewFCFS(), sched.Options{})
	if err := e.Inject(reqs[0], reqs[0].Arrival); err != nil {
		t.Fatal(err)
	}
	got := e.EstimatedBacklog(load)
	want := e.EstimatedBacklog(BlindLoad(est))
	if got == 0 {
		t.Fatal("unknown LUT key estimated as zero load")
	}
	if got != want {
		t.Fatalf("unknown-key estimate %v differs from the pattern-blind fallback %v", got, want)
	}
}

// TestSparsityAwareLoadKeyInternedAfterLUT: the LUT finds entries by the
// keys' dense indexes, so a key interned after the LUT was built indexes
// past its end. It must read as unprofiled: the load and its curve fall
// back to the pattern-blind model estimate, exactly as for a key
// interned before the LUT but never profiled.
func TestSparsityAwareLoadKeyInternedAfterLUT(t *testing.T) {
	model := "late-" + t.Name()
	profiled := trace.NewKey(model, sparsity.Dense)
	tr := trace.SampleTrace{
		LayerLatency:  []time.Duration{2 * time.Millisecond, 3 * time.Millisecond},
		LayerSparsity: []float64{0.5, 0.5},
	}
	store := trace.NewStore()
	store.Add(profiled, []trace.SampleTrace{tr, tr})
	lut, err := trace.NewStatsSet(store)
	if err != nil {
		t.Fatal(err)
	}
	est := sched.NewEstimator(lut)
	late := rekeyed(&workload.Request{ID: 0, Trace: &tr, SLO: time.Second}, trace.NewKey(model, sparsity.ChannelWise))
	if lut.Lookup(late.Key()) != nil {
		t.Fatal("a key interned after the LUT reads as profiled")
	}
	e := sched.NewEngine(sched.NewFCFS(), sched.Options{
		BacklogEstimator: SparsityAwareLoad(lut, est),
		BacklogCurve:     SparsityAwareCurve(lut, est),
	})
	if err := e.Inject(late, 0); err != nil {
		t.Fatal(err)
	}
	got, want := e.EstimatedBacklog(SparsityAwareLoad(lut, est)), e.EstimatedBacklog(BlindLoad(est))
	if want != 5*time.Millisecond || got != want {
		t.Errorf("late key's estimate %v, want the pattern-blind %v (5ms)", got, want)
	}
	if e.Backlog() != want {
		t.Errorf("late key's curve-backed backlog %v, want %v", e.Backlog(), want)
	}
}

// TestBlindLoadUnknownModelFallback: a model the profiling stage never
// saw falls back to the population mean instead of panicking or zero.
func TestBlindLoadUnknownModelFallback(t *testing.T) {
	reqs, est, lut := unprofiledStream(1)
	alien := rekeyed(reqs[0], trace.NewKey("never-profiled", sparsity.Dense))
	e := sched.NewEngine(sched.NewFCFS(), sched.Options{})
	if err := e.Inject(alien, alien.Arrival); err != nil {
		t.Fatal(err)
	}
	for _, load := range []func(*sched.Task) time.Duration{
		BlindLoad(est), SparsityAwareLoad(lut, est),
	} {
		if got := e.EstimatedBacklog(load); got != est.MeanIsolated() {
			t.Fatalf("unknown-model estimate %v, want population mean %v", got, est.MeanIsolated())
		}
	}
}

// TestUnprofiledRoutingSpreads is the regression test for the zero-load
// bug: a saturating stream of exclusively unprofiled requests must spread
// over the cluster under sparsity-aware least-load, not pile onto engine
// 0 because every estimate reads as free.
func TestUnprofiledRoutingSpreads(t *testing.T) {
	reqs, est, lut := unprofiledStream(60)
	res, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs,
		Config{Engines: 3, Dispatch: NewLeastLoad("sparse-load", SparsityAwareLoad(lut, est))})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.PerEngine {
		if r.Requests == 0 {
			t.Errorf("engine %d received nothing: unprofiled requests routed as free work", i)
		}
	}
}

// TestRoundRobinReusedAcrossRuns: a dispatcher instance reused for a
// second Run must produce exactly the results a fresh instance does — the
// rotation state cannot leak between runs.
func TestRoundRobinReusedAcrossRuns(t *testing.T) {
	reqs, _, _ := randomStream(5, 31) // odd count, so a leak would shift the second run
	cfg := func(d Dispatcher) Config { return Config{Engines: 3, Dispatch: d} }
	reused := NewRoundRobin()
	first, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs, cfg(reused))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs, cfg(reused))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("round-robin leaked rotation state into the second run")
	}
}

// TestRoundRobinGuardsEngineCountChange: a rotation position past the
// engine count (an instance that previously served a bigger cluster and
// was never reset) must still pick in range.
func TestRoundRobinGuardsEngineCountChange(t *testing.T) {
	d := &RoundRobin{next: 7}
	sig := make([]EngineSignal, 2)
	for i := 0; i < 5; i++ {
		if got := d.Pick(sig, nil, 0); got < 0 || got >= len(sig) {
			t.Fatalf("pick %d out of range for %d engines", got, len(sig))
		}
	}
}

// TestJSQNormalizesCapacity: with one double-speed and one half-speed
// engine, capacity-normalized JSQ must route the bulk of a saturating
// stream to the fast engine instead of splitting evenly.
func TestJSQNormalizesCapacity(t *testing.T) {
	reqs, _, _ := randomStream(9, 200)
	for _, r := range reqs {
		r.Arrival /= 10
	}
	res, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs,
		Config{
			Specs: []EngineSpec{
				{LatencyScale: 0.5}, // double speed
				{LatencyScale: 2},   // half speed
			},
			Dispatch: NewJSQ(),
		})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := res.PerEngine[0].Requests, res.PerEngine[1].Requests
	if fast <= slow {
		t.Errorf("fast engine served %d <= slow engine's %d under capacity-normalized JSQ", fast, slow)
	}
}
