package sched

import (
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/rng"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// TestScalableMatchesReference proves PREMA's heap pick produces
// bit-identical schedules to the reference PickNext at the threshold
// regimes the default misses: low thresholds, where most waiting tasks
// cross within a pick or two, and 0, where every task is a candidate from
// arrival on. (TestIncrementalMatchesReference covers the default
// threshold and SDRM3.) No tolerance: Results must be DeepEqual, timeline
// and per-task outcomes included.
func TestScalableMatchesReference(t *testing.T) {
	heap := Options{RecordTimeline: true, RecordTasks: true}
	reference := heap
	reference.ReferencePick = true
	for seed := uint64(1); seed <= 40; seed++ {
		reqs, est := randomStream(seed)
		for _, th := range []float64{8, 1, 0} {
			mk := func() Scheduler { p := NewPREMA(est); p.Threshold = th; return p }
			fast, err := Run(mk(), reqs, heap)
			if err != nil {
				t.Fatalf("PREMA threshold %g heap pick (seed %d): %v", th, seed, err)
			}
			ref, err := Run(mk(), reqs, reference)
			if err != nil {
				t.Fatalf("PREMA threshold %g reference (seed %d): %v", th, seed, err)
			}
			sameResults(t, "PREMA", fast, ref)
		}
	}
}

// TestScalablePREMAWithinTolerance pins PREMA at its default threshold,
// with the deprecated ScalablePick option set, against the reference
// PickNext. The tolerance is zero: token accrual uses the reference's
// float ops, so Results must be DeepEqual, timeline and per-task outcomes
// included.
func TestScalablePREMAWithinTolerance(t *testing.T) {
	scalable := Options{RecordTimeline: true, RecordTasks: true, ScalablePick: true}
	reference := Options{RecordTimeline: true, RecordTasks: true, ReferencePick: true}
	for seed := uint64(1); seed <= 40; seed++ {
		reqs, est := randomStream(seed)
		fast, err := Run(NewPREMA(est), reqs, scalable)
		if err != nil {
			t.Fatalf("PREMA scalable (seed %d): %v", seed, err)
		}
		ref, err := Run(NewPREMA(est), reqs, reference)
		if err != nil {
			t.Fatalf("PREMA reference (seed %d): %v", seed, err)
		}
		sameResults(t, "PREMA", fast, ref)
	}
}

// TestScalableFallsBackWithoutImplementation checks that the deprecated
// ScalablePick option is ignored: setting it changes no scheduler's
// schedule.
func TestScalableFallsBackWithoutImplementation(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		reqs, est := randomStream(seed)
		opts := Options{RecordTimeline: true, RecordTasks: true}
		withFlag := opts
		withFlag.ScalablePick = true
		for _, mk := range []func() Scheduler{
			func() Scheduler { return NewFCFS() },
			func() Scheduler { return NewPREMA(est) },
			func() Scheduler { return NewSDRM3(est) },
		} {
			plain, err := Run(mk(), reqs, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			flagged, err := Run(mk(), reqs, withFlag)
			if err != nil {
				t.Fatalf("seed %d with ScalablePick: %v", seed, err)
			}
			sameResults(t, plain.Scheduler, plain, flagged)
		}
	}
}

// tieGridStream draws a deep-queue stream on a 100µs grid: profiled and
// true layer latencies, arrivals (often simultaneous) and SLOs are all
// whole multiples of 100µs, and true latencies stray from the profile, so
// an executed task's slack can rise back above zero. On the grid the heap
// keys tie often, slacks land exactly on zero, and 0.1ms is no float64, so
// tasks of equal integer key differ in their float scores by rounding: the
// corner cases a Poisson stream at nanosecond resolution almost never
// reaches. It returns the profiling LUT with the estimator built on it,
// for the pick tests of internal/core's schedulers (see export_test.go).
func tieGridStream(seed uint64) ([]*workload.Request, *Estimator, *trace.StatsSet) {
	const grid = 100 * time.Microsecond
	r := rng.New(seed)
	nModels := 1 + r.Intn(3)
	store := trace.NewStore()
	keys := make([]trace.Key, nModels)
	profiles := make([]trace.SampleTrace, nModels)
	for m := range profiles {
		keys[m] = trace.NewKey(string(rune('a'+m)), sparsity.Dense)
		layers := 1 + r.Intn(6)
		tr := trace.SampleTrace{LayerLatency: make([]time.Duration, layers), LayerSparsity: make([]float64, layers)}
		for l := range tr.LayerLatency {
			tr.LayerLatency[l] = time.Duration(3+r.Intn(20)) * grid
			tr.LayerSparsity[l] = 0.5
		}
		profiles[m] = tr
		store.Add(keys[m], []trace.SampleTrace{tr})
	}
	set, err := trace.NewStatsSet(store)
	if err != nil {
		panic(err)
	}
	reqs := make([]*workload.Request, 60+r.Intn(60))
	var arrival time.Duration
	for i := range reqs {
		arrival += time.Duration(r.Intn(4)) * grid
		m := r.Intn(nModels)
		tr := trace.SampleTrace{
			Key:           keys[m],
			LayerLatency:  make([]time.Duration, profiles[m].NumLayers()),
			LayerSparsity: profiles[m].LayerSparsity,
		}
		for l, avg := range profiles[m].LayerLatency {
			tr.LayerLatency[l] = avg + time.Duration(r.Intn(5)-2)*grid
		}
		reqs[i] = &workload.Request{
			ID: i, Trace: &tr, Arrival: arrival,
			SLO: time.Duration(1+r.Intn(40)) * profiles[m].Total() / 4 / grid * grid,
		}
	}
	return reqs, NewEstimator(set), set
}

// TestHeapPicksExactOnTieGrid runs every heap pick in this package against
// the reference PickNext on tieGridStream's streams. No tolerance: Results
// must be DeepEqual, timeline and per-task outcomes included.
// TestCoreHeapPicksExactOnTieGrid does the same for Dysta and the Oracle.
func TestHeapPicksExactOnTieGrid(t *testing.T) {
	heap := Options{RecordTimeline: true, RecordTasks: true}
	reference := heap
	reference.ReferencePick = true
	for seed := uint64(1); seed <= 200; seed++ {
		reqs, est, _ := tieGridStream(seed)
		for _, spec := range []struct {
			name string
			mk   func() Scheduler
		}{
			{"FCFS", func() Scheduler { return NewFCFS() }},
			{"SJF", func() Scheduler { return NewSJF(est) }},
			{"PREMA", func() Scheduler { return NewPREMA(est) }},
			{"SDRM3", func() Scheduler { return NewSDRM3(est) }},
			{"Planaria", func() Scheduler { return NewPlanaria(est) }},
		} {
			fast, err := Run(spec.mk(), reqs, heap)
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec.name, seed, err)
			}
			ref, err := Run(spec.mk(), reqs, reference)
			if err != nil {
				t.Fatalf("%s reference seed %d: %v", spec.name, seed, err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("%s seed %d: heap and reference schedules diverge (ANTT %v vs %v)",
					spec.name, seed, fast.ANTT, ref.ANTT)
			}
		}
	}
}

// TestHeapPicksReclassifyExecutedTask pins the one way a task's slack can
// rise: executing a layer faster than the estimate the slack is computed
// from (here Planaria's profile; TestOracleReclassifiesExecutedTask covers
// the Oracle's ground truth). Task a arrives past its slack, executes a
// layer that brings it back to 3ms of slack, and b then arrives with far
// more slack and a higher score; both picks must file a back as feasible
// and choose it, as the reference scan does.
func TestHeapPicksReclassifyExecutedTask(t *testing.T) {
	a := synthReq(0, "a", 0, 10*time.Millisecond, 4, 0.875) // SLO 35ms, 40ms of work
	b := synthReq(1, "b", 2*time.Millisecond, 50*time.Millisecond, 1, 10)
	s := NewPlanaria(synthEstimator(a, b))
	var q ReadyQueue
	ta, tb := newTask(a), newTask(b)
	q.add(ta)
	s.OnArrival(ta, 0)
	ta.NextLayer, ta.trueRemaining = 1, 30*time.Millisecond
	now := 2 * time.Millisecond
	s.OnLayerComplete(ta, 0, 0.5, now)
	q.add(tb)
	s.OnArrival(tb, now)
	if ref := s.PickNext(q.Tasks(), now); ref != ta {
		t.Fatalf("reference picked task %d, want the re-feasible task 0", ref.ID)
	}
	if got := s.PickNextIncremental(&q, now); got != ta {
		t.Errorf("heap pick chose task %d, want the re-feasible task 0", got.ID)
	}
}
