package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
)

// fuzzCase is a cluster configuration decoded from FuzzClusterConfig's
// bytes, one small table index per knob. It holds indices, not policies,
// so every run builds its own (config), and no run sees another's
// dispatcher or autoscaler state.
type fuzzCase struct {
	seed                           uint64
	requests, scheduler            int
	engines                        int
	specs                          []EngineSpec // nil: a homogeneous cluster
	dispatch, admission, rebalance int
	signal, rebalanceEvery         time.Duration
	cost                           time.Duration
	budget                         int
	churn                          int // 0 none, 1 an empty plan, else a GenChurn plan
	mtbf, mttr                     time.Duration
	retryMax                       int
	autoscale                      bool
	scaleMin, scaleMax             int
	up, down, cooldown             time.Duration
	scaleLoad                      bool
	capture                        sched.Options
}

// fuzzBytes reads a fuzz input one knob at a time, as an index into a
// table of n choices; an exhausted input reads 0, the first choice.
type fuzzBytes []byte

func (b *fuzzBytes) pick(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// decodeFuzzCase decodes data into a configuration of 1-4 engines.
func decodeFuzzCase(data []byte) fuzzCase {
	b := fuzzBytes(data)
	ms := time.Millisecond
	us := time.Microsecond
	c := fuzzCase{
		seed:      uint64(1 + b.pick(256)),
		requests:  1 + b.pick(60),
		scheduler: b.pick(7),
		engines:   1 + b.pick(4),
	}
	scales := []float64{0, 1, 0.5, 2, 3}
	if b.pick(2) == 1 {
		c.specs = make([]EngineSpec, c.engines)
		for i := range c.specs {
			c.specs[i].LatencyScale = scales[b.pick(len(scales))]
		}
	}
	c.dispatch = b.pick(6)
	c.admission = b.pick(6)
	c.signal = []time.Duration{0, 0, 500 * us, 2 * ms, 10 * ms}[b.pick(5)]
	c.rebalance = b.pick(6)
	c.rebalanceEvery = []time.Duration{0, 250 * us, ms, 5 * ms}[b.pick(4)]
	c.cost = []time.Duration{0, 100 * us, 2 * ms}[b.pick(3)]
	c.budget = []int{0, 1, 5}[b.pick(3)]
	c.churn = b.pick(4)
	c.mtbf = []time.Duration{2 * ms, 10 * ms, 50 * ms}[b.pick(3)]
	c.mttr = []time.Duration{ms, 5 * ms, 20 * ms}[b.pick(3)]
	c.retryMax = []int{0, 1, 3}[b.pick(3)]
	if c.autoscale = b.pick(3) == 2; c.autoscale {
		c.scaleMin = 1 + b.pick(c.engines)
		c.scaleMax = c.scaleMin + b.pick(c.engines-c.scaleMin+2) // one past the engines is an error
		c.up = []time.Duration{ms, 5 * ms}[b.pick(2)]
		c.down = []time.Duration{0, 500 * us, 10 * ms}[b.pick(3)] // above up is an error
		c.cooldown = []time.Duration{0, 2 * ms}[b.pick(2)]
		c.scaleLoad = b.pick(2) == 1
	}
	c.capture = []sched.Options{
		{},
		{RecordTasks: true},
		{RecordTasks: true, RecordTimeline: true, LatencyScale: 1.5},
		{BoundedCapture: true},
		{BoundedCapture: true, Exemplars: 4, ExemplarSeed: 9},
	}[b.pick(5)]
	return c
}

// config builds the case's Config over the stream's estimates, with new
// policies. With neutral, every knob the case leaves absent is set to
// its neutral form instead: round-robin, AdmitAll, an empty churn plan,
// explicit specs that keep Sched.LatencyScale, and a rebalance policy
// that a zero interval disables (NoRebalance otherwise).
func (c fuzzCase) config(est *sched.Estimator, lut *trace.StatsSet, span time.Duration, neutral bool) (Config, error) {
	load := SparsityAwareLoad(lut, est)
	curve := SparsityAwareCurve(lut, est)
	cfg := Config{
		Engines:           c.engines,
		Specs:             c.specs,
		SignalInterval:    c.signal,
		RebalanceInterval: c.rebalanceEvery,
		MigrationCost:     c.cost,
		MigrationBudget:   c.budget,
		RetryMax:          c.retryMax,
		Sched:             c.capture,
	}
	switch c.dispatch {
	case 1:
		cfg.Dispatch = NewRoundRobin()
	case 2:
		cfg.Dispatch = NewJSQ()
	case 3:
		cfg.Dispatch = NewLeastLoad("blind-load", BlindLoad(est))
	case 4:
		cfg.Dispatch = NewLeastLoad("sparse-load", load)
	case 5:
		cfg.Dispatch = NewLeastLoad("sparse-load-curve", load).WithCurve(curve)
	}
	switch c.admission {
	case 1:
		cfg.Admission = AdmitAll{}
	case 2:
		cfg.Admission = QueueCap{Cap: 1}
	case 3:
		cfg.Admission = QueueCap{Cap: 3}
	case 4:
		cfg.Admission = SLOShed{Iso: RequestIsolated(lut, est), Load: load, Curve: curve}
	case 5:
		cfg.Admission = SLOShed{Iso: RequestIsolated(lut, est)}
	}
	switch c.rebalance {
	case 1:
		cfg.Rebalance = NoRebalance{}
	case 2:
		cfg.Rebalance = Steal{Load: load, Curve: curve}
	case 3:
		cfg.Rebalance = Steal{}
	case 4:
		cfg.Rebalance = Shed{Load: load, Curve: curve}
	case 5:
		cfg.Rebalance = Shed{Load: load}
	}
	switch c.churn {
	case 1:
		cfg.Churn = &ChurnPlan{}
	case 2, 3:
		plan, err := GenChurn(c.engines, 2*span+time.Millisecond, c.mtbf, c.mttr, c.seed)
		if err != nil {
			return Config{}, err
		}
		cfg.Churn = &plan
	}
	if c.autoscale {
		cfg.Autoscale = &Autoscaler{Min: c.scaleMin, Max: c.scaleMax, Up: c.up, Down: c.down, Cooldown: c.cooldown}
		if c.scaleLoad {
			cfg.Autoscale.Load, cfg.Autoscale.Curve = load, curve
		}
	}
	if !neutral {
		return cfg, nil
	}
	if cfg.Dispatch == nil {
		cfg.Dispatch = NewRoundRobin()
	}
	if cfg.Admission == nil {
		cfg.Admission = AdmitAll{}
	}
	if cfg.Rebalance == nil {
		cfg.Rebalance = NoRebalance{}
		if cfg.RebalanceInterval == 0 {
			cfg.Rebalance = Steal{Load: load, Curve: curve}
		}
	}
	if cfg.Churn == nil {
		cfg.Churn = &ChurnPlan{}
	}
	if len(cfg.Specs) == 0 {
		cfg.Specs = make([]EngineSpec, cfg.Engines)
	}
	return cfg, nil
}

// hasLoad reports whether the run resolves a load estimate: a load
// dispatcher, SLO shedding with one, an active rebalance policy with
// one, or an autoscaler with one (see RunStream's providers).
func (c fuzzCase) hasLoad() bool {
	migrating := (c.rebalance == 2 || c.rebalance == 4 || c.rebalance == 5) && c.rebalanceEvery > 0
	return c.dispatch >= 3 || c.admission == 4 || migrating || (c.autoscale && c.scaleLoad)
}

// neutralKnobs reports whether the case leaves every control-plane knob
// that can change a one-engine run neutral: all admitted, no migration,
// no churn event and no autoscaler.
func (c fuzzCase) neutralKnobs() bool {
	return c.admission <= 1 && (c.rebalance <= 1 || c.rebalanceEvery == 0) && c.churn <= 1 && !c.autoscale
}

// FuzzClusterConfig decodes its bytes into a cluster.Config of 1-4
// engines with mixed latency scales, every dispatch, admission and
// rebalance policy, signal and rebalance intervals including 0, a
// migration cost and budget, a small GenChurn plan and retry cap, an
// autoscaler, and bounded or full capture with or without Tasks, and
// runs a random stream of up to 60 requests under it with the backlog
// audit on. A run returns an error or a Result, never panics; a Result
// conserves its outcomes, on the cluster and on every engine, and a
// second run returns it again. The audit runs at every arrival and
// after the drain whenever the run has a load estimate. Two exact
// relations hold: a one-engine cluster with neutral knobs returns
// sched.Run's Result, and neutral knobs return what absent ones do.
func FuzzClusterConfig(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		// One engine under JSQ, AdmitAll and a 2ms signal interval.
		{1, 20, 0, 0, 0, 2, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2},
		// Four mixed-speed engines, sparse-load-curve dispatch, a queue
		// cap, stealing and an empty churn plan.
		{3, 59, 5, 3, 1, 1, 2, 0, 3, 5, 2, 3, 2, 1, 2, 2, 1, 2, 2, 1, 1, 1, 1, 0},
		// Four engines stealing under a churn plan with one retry, and
		// bounded capture with exemplars.
		{5, 59, 5, 3, 0, 4, 0, 2, 2, 1, 1, 0, 2, 1, 1, 1, 0, 4},
		// Four mixed-speed engines, SLO shedding and an autoscaler with
		// its own load estimate.
		{9, 59, 3, 3, 1, 1, 2, 3, 0, 0, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 3, 0, 1, 1, 1, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		all, est, lut := randomStream(c.seed, 60)
		reqs := all[:c.requests]
		span := reqs[len(reqs)-1].Arrival
		spec := schedSpecs(est, lut)[c.scheduler]
		newSched := func(int) sched.Scheduler { return spec.mk() }
		// audited counts the audits that had a load estimate to check.
		audited := 0
		var auditErr error
		audit := func(engines []*sched.Engine, load func(*sched.Task) time.Duration) error {
			if load != nil {
				audited++
				auditErr = backlogAuditor(new(int))(engines, load)
			}
			return auditErr
		}
		run := func(neutral bool, hook func([]*sched.Engine, func(*sched.Task) time.Duration) error) (Result, error) {
			cfg, err := c.config(est, lut, span, neutral)
			if err != nil {
				return Result{}, err
			}
			cfg.debugBacklogAudit = hook
			return Run(newSched, reqs, cfg)
		}

		res, err := run(false, audit)
		desc := fmt.Sprintf("%s, %+v", spec.name, c)
		if auditErr != nil {
			t.Fatalf("%s: backlog audit: %v", desc, auditErr)
		}
		if err != nil {
			return // any error but the audit's is allowed
		}
		if err := sched.CheckOutcomeConservation(res.Result); err != nil {
			t.Fatalf("%s: cluster: %v", desc, err)
		}
		for i, r := range res.PerEngine {
			if err := sched.CheckOutcomeConservation(r); err != nil {
				t.Fatalf("%s: engine %d: %v", desc, i, err)
			}
		}
		want := 0
		if c.hasLoad() {
			want = len(reqs) + 1
		}
		if audited != want {
			t.Fatalf("%s: the audit checked a load estimate %d times, want %d (every arrival and the drain, if the run has one)",
				desc, audited, want)
		}
		again, err := run(false, nil)
		if err != nil || !reflect.DeepEqual(again, res) {
			t.Fatalf("%s: a second run returned %+v (error %v), want %+v", desc, again, err, res)
		}
		neutral, err := run(true, nil)
		if err != nil || !reflect.DeepEqual(neutral, res) {
			t.Fatalf("%s: neutral knobs returned %+v (error %v), absent ones %+v", desc, neutral, err, res)
		}
		if c.engines == 1 && c.neutralKnobs() {
			opts := c.capture
			if len(c.specs) > 0 && c.specs[0].LatencyScale != 0 {
				opts.LatencyScale = c.specs[0].LatencyScale
			}
			single, err := sched.Run(spec.mk(), reqs, opts)
			if err != nil || !reflect.DeepEqual(res.Result, single) {
				t.Fatalf("%s: a one-engine cluster returned %+v, sched.Run %+v (error %v)", desc, res.Result, single, err)
			}
		}
	})
}
