package cluster

import (
	"math"
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/sched"
)

// TestNeutralKnobsBitIdentical is the equivalence anchor for the router
// rearchitecture: explicit homogeneous specs + SignalInterval 0 +
// AdmitAll must reproduce the plain idealized configuration bit-
// identically, for every dispatcher — the new knobs at their neutral
// settings change nothing.
func TestNeutralKnobsBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		reqs, est, lut := randomStream(seed, 60)
		for _, mk := range []func() Dispatcher{
			func() Dispatcher { return NewRoundRobin() },
			func() Dispatcher { return NewJSQ() },
			func() Dispatcher { return NewLeastLoad("sparse-load", SparsityAwareLoad(lut, est)) },
			func() Dispatcher { return NewLeastLoad("blind-load", BlindLoad(est)) },
		} {
			plain, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs,
				Config{Engines: 3, Dispatch: mk()})
			if err != nil {
				t.Fatal(err)
			}
			specs := []EngineSpec{{LatencyScale: 1}, {LatencyScale: 1}, {LatencyScale: 1}}
			explicit, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs,
				Config{Specs: specs, Dispatch: mk(), SignalInterval: 0, Admission: AdmitAll{}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, explicit) {
				t.Fatalf("%s (seed %d): neutral knobs diverge from the idealized router",
					mk().Name(), seed)
			}
		}
	}
}

// TestSignalBoardCachesBetweenRefreshes: within the interval Observe
// returns the frozen snapshot; past it, a refresh picks up live state.
func TestSignalBoardCachesBetweenRefreshes(t *testing.T) {
	reqs, est, _ := randomStream(3, 8)
	e := sched.NewEngine(sched.NewFCFS(), sched.Options{})
	board := NewSignalBoard([]*sched.Engine{e}, 10*time.Millisecond, BlindLoad(est))

	sig := board.Observe(0)
	if sig[0].Outstanding != 0 {
		t.Fatalf("fresh engine reads %d outstanding", sig[0].Outstanding)
	}
	if err := e.Inject(reqs[0], reqs[0].Arrival); err != nil {
		t.Fatal(err)
	}
	// Inside the interval: the injection is invisible.
	if sig = board.Observe(5 * time.Millisecond); sig[0].Outstanding != 0 {
		t.Errorf("stale snapshot saw a post-refresh injection (outstanding %d)", sig[0].Outstanding)
	}
	if age := board.Age(5 * time.Millisecond); age != 5*time.Millisecond {
		t.Errorf("age %v, want 5ms", age)
	}
	// At the interval boundary: refreshed.
	if sig = board.Observe(10 * time.Millisecond); sig[0].Outstanding != 1 {
		t.Errorf("boundary observation not refreshed (outstanding %d)", sig[0].Outstanding)
	}
	if sig[0].Backlog == 0 {
		t.Error("refresh did not recompute the backlog signal")
	}
}

// TestObservedSnapshotSurvivesRefresh pins the double-buffering contract:
// a slice handed out by Observe stays valid across exactly one subsequent
// Refresh. This is the aliasing bug class where an interval-0 autoscaler
// action mid-arrival forces a refresh between the arrival's Observe and
// the dispatch that reads it — the scale action at instant t must not
// mutate the snapshot the same arrival's dispatch is holding.
func TestObservedSnapshotSurvivesRefresh(t *testing.T) {
	reqs, est, lut := randomStream(5, 12)
	load := SparsityAwareLoad(lut, est)
	engines := []*sched.Engine{
		sched.NewEngine(sched.NewFCFS(), sched.Options{BacklogEstimator: load}),
		sched.NewEngine(sched.NewFCFS(), sched.Options{BacklogEstimator: load}),
	}
	if err := engines[0].Inject(reqs[0], reqs[0].Arrival); err != nil {
		t.Fatal(err)
	}
	board := NewSignalBoard(engines, 0, load)

	sig := board.Observe(reqs[0].Arrival)
	frozen := append([]EngineSignal(nil), sig...)
	// A scale/churn action now mutates engine state and refreshes the
	// board while the dispatcher still holds sig.
	if err := engines[1].Inject(reqs[1], reqs[0].Arrival); err != nil {
		t.Fatal(err)
	}
	board.Refresh(reqs[0].Arrival)
	if !reflect.DeepEqual(sig, frozen) {
		t.Fatalf("refresh mutated the snapshot a dispatcher was holding:\n%+v\nvs frozen\n%+v", sig, frozen)
	}
	// The refresh itself did see the new state: the next observation
	// reports engine 1's injection.
	next := board.Observe(reqs[0].Arrival)
	if next[1].Outstanding != 1 || next[1].Backlog == 0 {
		t.Fatalf("post-refresh observation missed the injection: %+v", next[1])
	}
	if reflect.DeepEqual(next, frozen) {
		t.Fatal("post-refresh observation identical to the stale snapshot")
	}
}

// TestStaleSignalsConcentrateWork: with a refresh interval spanning many
// arrivals, every state-aware policy routes whole bursts to whichever
// engine looked emptiest at the last refresh — so the cluster must end up
// more concentrated (higher imbalance) than under exact signals.
func TestStaleSignalsConcentrateWork(t *testing.T) {
	reqs, est, _ := randomStream(21, 300)
	for _, r := range reqs {
		r.Arrival /= 10
	}
	run := func(interval time.Duration) Result {
		res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs,
			Config{Engines: 4, Dispatch: NewJSQ(), SignalInterval: interval})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exact := run(0)
	// Far beyond the compressed stream's span: one refresh serves (almost)
	// the whole run.
	stale := run(time.Hour)
	if stale.Imbalance <= exact.Imbalance {
		t.Errorf("hour-stale JSQ imbalance %.3f not worse than exact-state %.3f",
			stale.Imbalance, exact.Imbalance)
	}
	// The degenerate stale case: the first snapshot shows four empty
	// engines forever, so JSQ's lowest-index tie-break sends everything
	// to engine 0.
	if stale.PerEngine[0].Requests != len(reqs) {
		t.Errorf("hour-stale JSQ spread requests (%d on engine 0), want full concentration",
			stale.PerEngine[0].Requests)
	}
}

// TestHeterogeneousEnginesRunAtTheirSpeed: the same request served by a
// half-speed engine takes twice the reference busy time — the latency
// scale reaches the engine's cost model, not just the dispatcher math.
func TestHeterogeneousEnginesRunAtTheirSpeed(t *testing.T) {
	reqs, est, _ := randomStream(2, 40)
	run := func(scale float64) Result {
		res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs,
			Config{Specs: []EngineSpec{{LatencyScale: scale}}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref, slow := run(1), run(2)
	if slow.MeanLatency <= ref.MeanLatency {
		t.Errorf("half-speed engine mean latency %v not above reference %v",
			slow.MeanLatency, ref.MeanLatency)
	}
	if slow.ANTT <= ref.ANTT {
		t.Errorf("half-speed ANTT %.3f not above reference %.3f (NTT is measured against the reference contract)",
			slow.ANTT, ref.ANTT)
	}
}

// TestEngineSpecsValidation: contradictions and bad scales — negative,
// NaN or infinite, on the heterogeneous and the homogeneous path — fail
// the run.
func TestEngineSpecsValidation(t *testing.T) {
	reqs, est, _ := randomStream(3, 5)
	mk := func(int) sched.Scheduler { return sched.NewSJF(est) }
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"engines contradict specs", Config{Engines: 3, Specs: []EngineSpec{{}, {}}}, false},
		{"engines match specs", Config{Engines: 2, Specs: []EngineSpec{{}, {}}}, true},
		{"negative scale", Config{Specs: []EngineSpec{{LatencyScale: -1}}}, false},
		{"NaN scale", Config{Specs: []EngineSpec{{LatencyScale: nan}, {LatencyScale: nan}}}, false},
		{"+Inf scale", Config{Specs: []EngineSpec{{LatencyScale: 1}, {LatencyScale: inf}}}, false},
		{"-Inf scale", Config{Specs: []EngineSpec{{LatencyScale: -inf}}}, false},
		{"NaN cluster scale under specs", Config{Specs: []EngineSpec{{}}, Sched: sched.Options{LatencyScale: nan}}, false},
		{"NaN homogeneous scale", Config{Engines: 2, Sched: sched.Options{LatencyScale: nan}}, false},
		{"Inf homogeneous scale", Config{Engines: 2, Sched: sched.Options{LatencyScale: inf}}, false},
		{"finite scales", Config{Specs: []EngineSpec{{LatencyScale: 0.5}, {LatencyScale: 2}}}, true},
	} {
		_, err := Run(mk, reqs, c.cfg)
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestNegativeKnobsRejected: a negative control-plane knob fails the run
// instead of reading as its zero value.
func TestNegativeKnobsRejected(t *testing.T) {
	reqs, est, lut := randomStream(3, 20)
	mk := func(int) sched.Scheduler { return sched.NewSJF(est) }
	steal := Steal{Load: SparsityAwareLoad(lut, est)}
	for name, cfg := range map[string]Config{
		"signal interval":    {Engines: 2, SignalInterval: -5 * time.Millisecond},
		"rebalance interval": {Engines: 2, Rebalance: steal, RebalanceInterval: -time.Millisecond},
		"migration cost": {Engines: 2, Rebalance: steal, RebalanceInterval: time.Millisecond,
			MigrationCost: -5 * time.Millisecond},
		"migration budget": {Engines: 2, Rebalance: steal, RebalanceInterval: time.Millisecond,
			MigrationBudget: -1},
	} {
		if _, err := Run(mk, reqs, cfg); err == nil {
			t.Errorf("negative %s accepted", name)
		}
	}
}
