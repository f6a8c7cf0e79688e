package sched_test

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/rng"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// TestCoreHeapPicksExactOnTieGrid runs internal/core's heap picks against
// the reference PickNext on the tie-grid streams of
// TestHeapPicksExactOnTieGrid: Dysta in every configuration that changes
// a bound or partition its heaps rely on (with and without the dynamic
// level, at both Eta extremes, without demotion) and the Oracle. No
// tolerance: Results must be DeepEqual, timeline and per-task outcomes
// included, and each run must keep the engine's invariants.
func TestCoreHeapPicksExactOnTieGrid(t *testing.T) {
	heap := sched.Options{RecordTimeline: true, RecordTasks: true}
	reference := heap
	reference.ReferencePick = true
	for seed := uint64(1); seed <= 200; seed++ {
		reqs, _, lut := sched.TieGridStream(seed)
		dysta := func(mut func(*core.Config)) func() sched.Scheduler {
			cfg := core.DefaultConfig()
			mut(&cfg)
			return func() sched.Scheduler { return core.New(cfg, lut) }
		}
		for _, spec := range []struct {
			name string
			mk   func() sched.Scheduler
		}{
			{"Dysta", dysta(func(*core.Config) {})},
			{"Dysta-w/o-sparse", dysta(func(c *core.Config) { c.DynamicEnabled = false })},
			{"Dysta/eta-0", dysta(func(c *core.Config) { c.Eta = 0 })},
			{"Dysta/eta-1", dysta(func(c *core.Config) { c.Eta = 1 })},
			{"Dysta/demotion-0", dysta(func(c *core.Config) { c.DemotionMS = 0 })},
			{"Oracle", func() sched.Scheduler { return core.NewOracle(lut) }},
		} {
			fast, err := sched.Run(spec.mk(), reqs, heap)
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec.name, seed, err)
			}
			ref, err := sched.Run(spec.mk(), reqs, reference)
			if err != nil {
				t.Fatalf("%s reference seed %d: %v", spec.name, seed, err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("%s seed %d: heap and reference schedules diverge (ANTT %v vs %v)",
					spec.name, seed, fast.ANTT, ref.ANTT)
			}
			sched.EngineInvariants(t, spec.name, fast, reqs)
		}
	}
}

// TestOracleReclassifiesExecutedTask pins the one way an Oracle task's
// slack can rise: on an engine faster than the reference speed, the
// clock advances less than TrueRemaining falls. Task a arrives past its
// slack (40ms of work, SLO 35ms) and runs its first layer alone, done at
// 2.5ms with 30ms of work and 2.5ms of slack left. b, delivered then,
// has far more slack and a higher score. The heap pick must file a back
// as feasible and run it to completion first, as the reference scan does.
func TestOracleReclassifiesExecutedTask(t *testing.T) {
	reqs := []*workload.Request{
		sched.SynthReq(0, "a", 0, 10*time.Millisecond, 4, 0.875),
		sched.SynthReq(1, "b", 2*time.Millisecond, 50*time.Millisecond, 1, 10),
	}
	lut := sched.SynthLUT(reqs...)
	opts := sched.Options{LatencyScale: 0.25, RecordTimeline: true, RecordTasks: true}
	reference := opts
	reference.ReferencePick = true
	fast, err := sched.Run(core.NewOracle(lut), reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sched.Run(core.NewOracle(lut), reqs, reference)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("heap and reference schedules diverge:\n%+v\nvs\n%+v", fast, ref)
	}
	for _, o := range fast.Tasks {
		if o.ID == 0 && o.Completion != 10*time.Millisecond {
			t.Errorf("task a completed at %v, want 10ms (run first once re-feasible)", o.Completion)
		}
	}
}

// TestOraclePrefersTrueShortJob: two requests of one model, so identical
// profiles, with one deadline but different true latencies. The Oracle
// must run the truly shorter one first, although the longer one has the
// lower ID that a scheduler blind to the truth would tie-break on.
func TestOraclePrefersTrueShortJob(t *testing.T) {
	slow := sched.SynthReq(0, "m", 0, 10*time.Millisecond, 4, 100)
	fast := sched.SynthReq(1, "m", 0, time.Millisecond, 4, 100)
	fast.SLO = slow.SLO
	reqs := []*workload.Request{slow, fast}
	res, err := sched.Run(core.NewOracle(sched.SynthLUT(reqs...)), reqs, sched.Options{RecordTasks: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Tasks {
		if o.ID == fast.ID && o.Completion != fast.Trace.Total() {
			t.Errorf("the truly short request completed at %v, want %v (run first)", o.Completion, fast.Trace.Total())
		}
	}
}

// TestOracleConfigRules pins the configurations the Oracle pick's bounds
// hold for. The Oracle runs on DefaultConfig without the preemption
// penalty; Validate rejects an Eta outside [0,1] and a negative or NaN
// DemotionMS, which would let a demoted task score below its
// feasible-heap bound, and core.New panics on every configuration
// Validate rejects.
func TestOracleConfigRules(t *testing.T) {
	lut := sched.SynthLUT(sched.SynthReq(0, "m", 0, time.Millisecond, 2, 100))
	base := core.NewOracle(lut).Config()
	if err := base.Validate(); err != nil {
		t.Fatalf("Oracle config invalid: %v", err)
	}
	if base.PenaltyWeight != 0 {
		t.Errorf("Oracle PenaltyWeight = %v, want 0", base.PenaltyWeight)
	}
	nan := math.NaN()
	for _, c := range []struct {
		name          string
		eta, demotion float64
		ok            bool
	}{
		{"default", base.Eta, base.DemotionMS, true},
		{"eta 0", 0, 1000, true},
		{"eta 1", 1, 1000, true},
		{"demotion 0", 0.05, 0, true},
		{"eta negative", -0.1, 1000, false},
		{"eta above 1", 1.5, 1000, false},
		{"eta NaN", nan, 1000, false},
		{"demotion negative", 0.05, -1, false},
		{"demotion NaN", 0.05, nan, false},
	} {
		cfg := base
		cfg.Eta, cfg.DemotionMS = c.eta, c.demotion
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
		func() {
			defer func() {
				if panicked := recover() != nil; panicked == c.ok {
					t.Errorf("%s: core.New panicked=%v, want %v", c.name, panicked, !c.ok)
				}
			}()
			core.New(cfg, lut)
		}()
	}
}

// TestOracleOptimalANTTOnPair: for two simultaneous requests with equal
// profiles and deadlines, the Oracle achieves the minimum possible ANTT
// (true shortest-first): with one deadline, the Eta-weighted slack adds
// the same term to both scores.
func TestOracleOptimalANTTOnPair(t *testing.T) {
	profile := sched.SynthReq(0, "m", 0, 500*time.Microsecond, 2, 1)
	lut := sched.SynthLUT(profile)
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		mk := func(id int, lat time.Duration) *workload.Request {
			return &workload.Request{ID: id, SLO: time.Hour, Trace: &trace.SampleTrace{
				Key:           profile.Key(),
				LayerLatency:  []time.Duration{lat, lat},
				LayerSparsity: []float64{0.5, 0.5},
			}}
		}
		latA := time.Duration(1+r.Intn(1000)) * time.Microsecond
		latB := time.Duration(1+r.Intn(1000)) * time.Microsecond
		res, err := sched.Run(core.NewOracle(lut), []*workload.Request{mk(0, latA), mk(1, latB)}, sched.Options{})
		if err != nil {
			return false
		}
		// Optimal ANTT: run the shorter first.
		short, long := 2*latA, 2*latB
		if long < short {
			short, long = long, short
		}
		optimal := (1.0 + float64(short+long)/float64(long)) / 2
		return res.ANTT <= optimal+1e-9
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
