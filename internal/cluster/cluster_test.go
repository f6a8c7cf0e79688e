package cluster

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/rng"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// randomStream builds a random well-formed request stream plus the
// profiling artefacts every scheduler and dispatcher needs (mirrors the
// generator of the sched package's property tests).
func randomStream(seed uint64, n int) ([]*workload.Request, *sched.Estimator, *trace.StatsSet) {
	r := rng.New(seed)
	nModels := 1 + r.Intn(3)
	store := trace.NewStore()
	keys := make([]trace.Key, nModels)
	profiles := make([][]trace.SampleTrace, nModels)
	for m := 0; m < nModels; m++ {
		keys[m] = trace.NewKey(string(rune('a'+m)), sparsity.Dense)
		layers := 2 + r.Intn(8)
		for p := 0; p < 3; p++ {
			tr := trace.SampleTrace{
				LayerLatency:  make([]time.Duration, layers),
				LayerSparsity: make([]float64, layers),
			}
			for l := 0; l < layers; l++ {
				tr.LayerLatency[l] = time.Duration(100+r.Intn(5000)) * time.Microsecond
				tr.LayerSparsity[l] = 0.1 + 0.8*r.Float64()
			}
			profiles[m] = append(profiles[m], tr)
		}
		store.Add(keys[m], profiles[m])
	}
	set, err := trace.NewStatsSet(store)
	if err != nil {
		panic(err)
	}
	reqs := make([]*workload.Request, n)
	var arrival time.Duration
	for i := range reqs {
		arrival += time.Duration(r.Intn(3000)) * time.Microsecond
		m := r.Intn(nModels)
		tr := &profiles[m][r.Intn(len(profiles[m]))]
		reqs[i] = &workload.Request{
			ID:      i,
			Key:     keys[m],
			Trace:   tr,
			Arrival: arrival,
			SLO:     time.Duration(float64(tr.Total()) * (1 + 10*r.Float64())),
		}
	}
	return reqs, sched.NewEstimator(set), set
}

// schedSpecs returns one constructor per scheduler in the paper lineup,
// the Oracle included.
func schedSpecs(est *sched.Estimator, lut *trace.StatsSet) []struct {
	name string
	mk   func() sched.Scheduler
} {
	return []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"FCFS", func() sched.Scheduler { return sched.NewFCFS() }},
		{"SJF", func() sched.Scheduler { return sched.NewSJF(est) }},
		{"PREMA", func() sched.Scheduler { return sched.NewPREMA(est) }},
		{"Planaria", func() sched.Scheduler { return sched.NewPlanaria(est) }},
		{"SDRM3", func() sched.Scheduler { return sched.NewSDRM3(est) }},
		{"Dysta", func() sched.Scheduler { return core.NewDefault(lut) }},
		{"Oracle", func() sched.Scheduler { return core.NewOracle(lut) }},
	}
}

// dispatchers returns a fresh instance of every dispatch policy. The
// sparse-load policy appears twice — bare and with its curve form — so
// every suite built on this fixture exercises both the per-event
// estimator path and the curve-indexed path of the engines' incremental
// backlog accounting, which must be bit-identical.
func dispatchers(est *sched.Estimator, lut *trace.StatsSet) []Dispatcher {
	return []Dispatcher{
		NewRoundRobin(),
		NewJSQ(),
		NewLeastLoad("blind-load", BlindLoad(est)),
		NewLeastLoad("sparse-load", SparsityAwareLoad(lut, est)),
		NewLeastLoad("sparse-load-curve", SparsityAwareLoad(lut, est)).
			WithCurve(SparsityAwareCurve(lut, est)),
	}
}

// TestSingleEngineMatchesRun: a 1-engine cluster is bit-identical to
// sched.Run — metrics, per-task outcomes and the execution timeline — for
// every scheduler under every dispatcher (with one engine, every policy
// must route everything to it).
func TestSingleEngineMatchesRun(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		reqs, est, lut := randomStream(seed, 30)
		opts := sched.Options{RecordTimeline: true, RecordTasks: true}
		for _, spec := range schedSpecs(est, lut) {
			want, err := sched.Run(spec.mk(), reqs, opts)
			if err != nil {
				t.Fatalf("%s Run (seed %d): %v", spec.name, seed, err)
			}
			for _, d := range dispatchers(est, lut) {
				got, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs,
					Config{Engines: 1, Dispatch: d, Sched: opts})
				if err != nil {
					t.Fatalf("%s/%s (seed %d): %v", spec.name, d.Name(), seed, err)
				}
				if !reflect.DeepEqual(got.Result, want) {
					t.Fatalf("%s/%s (seed %d): 1-engine cluster diverges from sched.Run:\n%+v\nvs\n%+v",
						spec.name, d.Name(), seed, got.Result, want)
				}
				if len(got.PerEngine) != 1 || !reflect.DeepEqual(got.PerEngine[0], want) {
					t.Fatalf("%s/%s (seed %d): per-engine result diverges", spec.name, d.Name(), seed)
				}
			}
		}
	}
}

// TestClusterInvariants: every request completes exactly once, aggregate
// counts match, and the health metrics stay in range, across engine
// counts, dispatchers and schedulers.
func TestClusterInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		reqs, est, lut := randomStream(seed, 60)
		for _, engines := range []int{1, 2, 3, 5} {
			for _, d := range dispatchers(est, lut) {
				for _, spec := range schedSpecs(est, lut) {
					res, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs,
						Config{Engines: engines, Dispatch: d})
					if err != nil {
						t.Fatalf("%s/%s/%d (seed %d): %v", spec.name, d.Name(), engines, seed, err)
					}
					if res.Requests != len(reqs) {
						t.Errorf("%s/%s/%d: %d of %d requests completed",
							spec.name, d.Name(), engines, res.Requests, len(reqs))
					}
					var perEngineTotal int
					for _, r := range res.PerEngine {
						perEngineTotal += r.Requests
					}
					if perEngineTotal != len(reqs) {
						t.Errorf("%s/%s/%d: per-engine totals %d", spec.name, d.Name(), engines, perEngineTotal)
					}
					if res.ANTT < 1 {
						t.Errorf("%s/%s/%d: ANTT %v < 1", spec.name, d.Name(), engines, res.ANTT)
					}
					if res.ViolationRate < 0 || res.ViolationRate > 1 {
						t.Errorf("%s/%s/%d: violation rate %v", spec.name, d.Name(), engines, res.ViolationRate)
					}
					if res.Utilization < 0 || res.Utilization > 1+1e-9 {
						t.Errorf("%s/%s/%d: utilization %v", spec.name, d.Name(), engines, res.Utilization)
					}
					if res.Imbalance < 1-1e-9 {
						t.Errorf("%s/%s/%d: imbalance %v < 1", spec.name, d.Name(), engines, res.Imbalance)
					}
					if res.Tasks != nil {
						t.Errorf("%s/%s/%d: Tasks recorded without RecordTasks", spec.name, d.Name(), engines)
					}
				}
			}
		}
	}
}

// TestClusterDeterministic: identical inputs give identical results.
func TestClusterDeterministic(t *testing.T) {
	reqs, est, lut := randomStream(42, 80)
	for _, mkDispatch := range []func() Dispatcher{
		func() Dispatcher { return NewRoundRobin() },
		func() Dispatcher { return NewJSQ() },
		func() Dispatcher { return NewLeastLoad("sparse-load", SparsityAwareLoad(lut, est)) },
	} {
		run := func() Result {
			res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs,
				Config{Engines: 3, Dispatch: mkDispatch(), Sched: sched.Options{RecordTasks: true}})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: nondeterministic cluster results", mkDispatch().Name())
		}
	}
}

// TestThroughputScalesWithEngines: at a rate that saturates one engine,
// adding engines must raise completed-work throughput.
func TestThroughputScalesWithEngines(t *testing.T) {
	reqs, est, _ := randomStream(7, 200)
	// Compress arrivals to saturate a single engine hard.
	for _, r := range reqs {
		r.Arrival /= 20
	}
	prev := 0.0
	for _, engines := range []int{1, 2, 4} {
		res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs,
			Config{Engines: engines, Dispatch: NewJSQ()})
		if err != nil {
			t.Fatal(err)
		}
		if engines > 1 && res.Throughput <= prev {
			t.Errorf("throughput did not scale: %d engines %.1f inf/s, previous %.1f",
				engines, res.Throughput, prev)
		}
		prev = res.Throughput
	}
}

// TestLoadAwareBeatsRoundRobinImbalance: under a saturating stream,
// load-aware dispatch must not be more imbalanced than round-robin, and
// JSQ must spread requests across all engines.
func TestLoadAwareBeatsRoundRobinImbalance(t *testing.T) {
	reqs, est, lut := randomStream(11, 300)
	for _, r := range reqs {
		r.Arrival /= 10
	}
	run := func(d Dispatcher) Result {
		res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs,
			Config{Engines: 4, Dispatch: d})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rr := run(NewRoundRobin())
	jsq := run(NewJSQ())
	load := run(NewLeastLoad("sparse-load", SparsityAwareLoad(lut, est)))
	for _, r := range jsq.PerEngine {
		if r.Requests == 0 {
			t.Error("JSQ left an engine idle under saturation")
		}
	}
	// Load-aware dispatch balances busy time at least as well as blind
	// round-robin (tolerance for the last-request boundary).
	if load.Imbalance > rr.Imbalance*1.10 {
		t.Errorf("sparse-load imbalance %.3f much worse than round-robin %.3f",
			load.Imbalance, rr.Imbalance)
	}
	if math.IsNaN(load.Utilization) || load.Utilization <= 0 {
		t.Errorf("utilization %v", load.Utilization)
	}
}

// TestDispatcherBoundsChecked: a broken dispatcher index fails the run
// instead of panicking.
func TestDispatcherBoundsChecked(t *testing.T) {
	reqs, est, _ := randomStream(3, 5)
	if _, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs,
		Config{Engines: 2, Dispatch: badDispatcher{}}); err == nil {
		t.Fatal("out-of-range dispatch accepted")
	}
	if _, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, nil,
		Config{Engines: 2}); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs,
		Config{Engines: 0}); err == nil {
		t.Fatal("zero engines accepted")
	}
}

// TestSpecsRunUnderClusterOptions: every engine runs under Config.Sched,
// so specs that set no latency scale run exactly like a homogeneous
// cluster of as many engines under the same options: the capture mode,
// the recorded outcomes and the preemption overhead included. Each set
// of options must also change the run, or the comparison shows nothing.
func TestSpecsRunUnderClusterOptions(t *testing.T) {
	reqs, est, lut := randomStream(5, 120)
	for _, r := range reqs {
		r.Arrival /= 4
	}
	mk := func(int) sched.Scheduler { return core.NewDefault(lut) }
	run := func(cfg Config) Result {
		t.Helper()
		cfg.Dispatch = NewLeastLoad("sparse-load", SparsityAwareLoad(lut, est))
		res, err := Run(mk, reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(Config{Engines: 2})
	for name, opts := range map[string]sched.Options{
		"bounded capture": {BoundedCapture: true, Exemplars: 8, ExemplarSeed: 3},
		"record tasks":    {RecordTasks: true},
		"overhead":        {PreemptionOverhead: 300 * time.Microsecond},
	} {
		want := run(Config{Engines: 2, Sched: opts})
		if reflect.DeepEqual(want, plain) {
			t.Fatalf("%s: the options change nothing", name)
		}
		if got := run(Config{Specs: []EngineSpec{{}, {}}, Sched: opts}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: specs run\n%+v\nwant the homogeneous run\n%+v", name, got.Result, want.Result)
		}
	}
}

// TestEngineClockOverflowFailsTheRun: an engine whose scaled clock
// would pass the largest time.Duration fails the run with an error
// naming its latency scale, whether the overflow is in the scaled
// layer latency (1e13) or in the clock after it (1e12, dysta-sim's
// -engines 2x1e12). The wrapped clock used to reach the event tree,
// which panicked on a negative event time.
func TestEngineClockOverflowFailsTheRun(t *testing.T) {
	reqs, est, _ := randomStream(3, 40)
	for _, scale := range []float64{1e12, 1e13} {
		_, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs,
			Config{Specs: []EngineSpec{{LatencyScale: scale}, {LatencyScale: scale}}, Dispatch: NewRoundRobin()})
		if want := fmt.Sprintf("latency scale %g", scale); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("scale %g: err %v, want one naming %q", scale, err, want)
		}
	}
}

// TestEventPastPackedRangeFailsTheRun: the event tree packs each event as
// time<<slotBits | slot, so times stop at maxTime. A stream shifted late
// enough that every event still fits runs exactly like the unshifted
// stream (no event wraps into another slot's bits and jumps the queue),
// and a stream shifted so that its last request arrives at maxTime,
// whose layers then end past it, fails with an error naming the engine,
// the time and the limit: no panic and no result.
func TestEventPastPackedRangeFailsTheRun(t *testing.T) {
	reqs, est, lut := randomStream(6, 60)
	cfg := Config{Engines: 4, Dispatch: NewLeastLoad("sparse-load", SparsityAwareLoad(lut, est))}
	mk := func(int) sched.Scheduler { return sched.NewSJF(est) }
	shifted := func(by time.Duration) []*workload.Request {
		out := make([]*workload.Request, len(reqs))
		for i, r := range reqs {
			c := *r
			c.Arrival += by
			out[i] = &c
		}
		return out
	}
	limit := newEventTree(cfg.Engines).maxTime
	var work time.Duration
	for _, r := range reqs {
		work += r.Trace.Total()
	}
	last := reqs[len(reqs)-1].Arrival

	want, err := Run(mk, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No event comes later than the last arrival plus all the work.
	got, err := Run(mk, shifted(limit-last-work), cfg)
	if err != nil {
		t.Fatalf("stream ending by the last valid time: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shifted run differs:\n got %+v\nwant %+v", got.Result, want.Result)
	}

	_, err = Run(mk, shifted(limit-last), cfg)
	if err == nil {
		t.Fatal("a run with events past the packed range succeeded")
	}
	for _, part := range []string{"cluster: engine ", "next event at ", limit.String()} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
}

// TestImbalanceDegenerateCase: an all-idle cluster (every layer free)
// must report Imbalance 1.0 — the perfectly balanced value — not a 0 that
// would sort as "better than perfectly balanced".
func TestImbalanceDegenerateCase(t *testing.T) {
	key := trace.NewKey("free", sparsity.Dense)
	tr := trace.SampleTrace{LayerLatency: []time.Duration{0, 0}, LayerSparsity: []float64{0.5, 0.5}}
	store := trace.NewStore()
	store.Add(key, []trace.SampleTrace{tr, tr})
	set, err := trace.NewStatsSet(store)
	if err != nil {
		t.Fatal(err)
	}
	est := sched.NewEstimator(set)
	reqs := make([]*workload.Request, 6)
	for i := range reqs {
		reqs[i] = &workload.Request{
			ID: i, Key: key, Trace: &tr,
			Arrival: time.Duration(i) * time.Millisecond, SLO: time.Second,
		}
	}
	res, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs,
		Config{Engines: 3, Dispatch: NewLeastLoad("blind-load", BlindLoad(est))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Imbalance != 1 {
		t.Errorf("all-idle cluster imbalance %v, want 1.0", res.Imbalance)
	}
}

// TestClusterAggregatesEveryEngine: the cluster-wide metrics are a fold
// of every completion, on every engine and every crashed incarnation, in
// global completion order — the order a caller's Observer sees them in.
// Requests, violations, the float means, the makespan from the earliest
// completed arrival to the last completion, and the per-model tallies
// must equal that fold exactly; Tasks is the ID-ordered union; and the
// per-engine counters sum. cluster.Run always drains, so nothing is
// dropped (the engine's drop accounting is pinned in internal/sched).
func TestClusterAggregatesEveryEngine(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		reqs, est, lut := randomStream(seed, 90)
		load := SparsityAwareLoad(lut, est)
		horizon := reqs[len(reqs)-1].Arrival * 2
		plan, err := GenChurn(3, horizon, horizon/5, horizon/15, 40+seed)
		if err != nil {
			t.Fatal(err)
		}
		for name, mut := range map[string]func(*Config){
			"plain": func(*Config) {},
			"stealing+churn": func(c *Config) {
				c.Rebalance = Steal{Load: load}
				c.RebalanceInterval = time.Millisecond
				c.MigrationCost = 500 * time.Microsecond
				c.Churn = &plan
			},
		} {
			var seq []sched.TaskOutcome
			cfg := Config{Engines: 3, Dispatch: NewJSQ(), Sched: sched.Options{
				RecordTasks: true,
				Observer:    func(o sched.TaskOutcome) { seq = append(seq, o) },
			}}
			mut(&cfg)
			res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs, cfg)
			if err != nil {
				t.Fatalf("%s (seed %d): %v", name, seed, err)
			}
			label := fmt.Sprintf("%s (seed %d)", name, seed)
			if len(seq) == 0 || res.Requests != len(seq) || res.Dropped != 0 {
				t.Fatalf("%s: %d requests, %d dropped, %d completions observed", label, res.Requests, res.Dropped, len(seq))
			}
			union := append([]sched.TaskOutcome(nil), seq...)
			sort.Slice(union, func(i, j int) bool { return union[i].ID < union[j].ID })
			if !reflect.DeepEqual(res.Tasks, union) {
				t.Fatalf("%s: Tasks is not the ID-ordered union of every completion", label)
			}
			var turnSum, latSum float64
			violations := 0
			first, last := seq[0].Arrival, time.Duration(0)
			perModel := map[string]sched.ModelMetrics{}
			for _, o := range seq {
				turnSum += o.NTT
				latSum += float64(o.Completion - o.Arrival)
				first, last = min(first, o.Arrival), max(last, o.Completion)
				m := perModel[o.Model]
				m.Requests++
				m.ANTT += o.NTT
				if o.Violated {
					violations++
					m.ViolationRate++
				}
				perModel[o.Model] = m
			}
			for name, m := range perModel {
				m.ANTT /= float64(m.Requests)
				m.ViolationRate /= float64(m.Requests)
				perModel[name] = m
			}
			n := float64(len(seq))
			makespan := last - first
			if res.Violations != violations || res.ViolationRate != float64(violations)/n ||
				res.ANTT != turnSum/n || res.MeanLatency != time.Duration(latSum/n) ||
				res.Makespan != makespan || res.Throughput != n/makespan.Seconds() ||
				res.Goodput != float64(len(seq)-violations)/makespan.Seconds() {
				t.Fatalf("%s: cluster metrics are not the completion-order fold: %+v", label, res.Result)
			}
			if !reflect.DeepEqual(res.PerModel, perModel) {
				t.Fatalf("%s: per-model %+v, want %+v", label, res.PerModel, perModel)
			}
			if res.MigrationWins+res.MigrationLosses != res.Migrations {
				t.Fatalf("%s: %d wins + %d losses != %d migrations",
					label, res.MigrationWins, res.MigrationLosses, res.Migrations)
			}
			if res.ChurnEvents > 0 {
				continue // crashed incarnations' counters are not in PerEngine
			}
			requests, preempts := 0, 0
			for _, r := range res.PerEngine {
				requests += r.Requests
				preempts += r.Preemptions
			}
			if requests != res.Requests || preempts != res.Preemptions {
				t.Fatalf("%s: per-engine sums %d requests, %d preemptions; cluster %d, %d",
					label, requests, preempts, res.Requests, res.Preemptions)
			}
		}
	}
}

type badDispatcher struct{}

func (badDispatcher) Name() string { return "bad" }
func (badDispatcher) Pick([]EngineSignal, *workload.Request, time.Duration) int {
	return 99
}
