package sched_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// offeredLoad is a sorted stream's isolated work over its arrival span,
// in engines.
func offeredLoad(reqs []*workload.Request) float64 {
	var work time.Duration
	for _, r := range reqs {
		work += r.Trace.Total()
	}
	return work.Seconds() / reqs[len(reqs)-1].Arrival.Seconds()
}

// lineup returns a maker for every scheduler of the Table 5 lineup, the
// Oracle and Dysta-w/o-sparse.
func lineup(lut *trace.StatsSet) map[string]func() sched.Scheduler {
	est := sched.NewEstimator(lut)
	return map[string]func() sched.Scheduler{
		"FCFS":             func() sched.Scheduler { return sched.NewFCFS() },
		"SJF":              func() sched.Scheduler { return sched.NewSJF(est) },
		"SDRM3":            func() sched.Scheduler { return sched.NewSDRM3(est) },
		"PREMA":            func() sched.Scheduler { return sched.NewPREMA(est) },
		"Planaria":         func() sched.Scheduler { return sched.NewPlanaria(est) },
		"Dysta":            func() sched.Scheduler { return core.NewDefault(lut) },
		"Oracle":           func() sched.Scheduler { return core.NewOracle(lut) },
		"Dysta-w/o-sparse": func() sched.Scheduler { return core.NewWithoutSparse(lut) },
	}
}

// deepCopy copies everything a Result references, so a later change to
// the storage it points into shows up as a difference.
func deepCopy(r sched.Result) sched.Result {
	r.PerModel = slices.Clone(r.PerModel)
	r.Tasks = slices.Clone(r.Tasks)
	r.Exemplars = slices.Clone(r.Exemplars)
	if r.Timeline != nil {
		r.Timeline = &sched.Timeline{Spans: slices.Clone(r.Timeline.Spans)}
	}
	return r
}

// TestRunnerMatchesFresh: a Runner re-arms one engine for every run, so
// a run after a deeper one starts with the queues, aggregator buffers
// and task list that run grew, and with the scheduler that run emptied.
// For every lineup scheduler, one Runner and one scheduler run a stream
// at more than 1.3x an engine's capacity, then a shallow one, under
// full capture, full capture with Tasks and the Timeline, and bounded
// capture with exemplars, in that order. The shallow run must return
// the DeepEqual Result of RunStream on a new scheduler, and the deep
// run's Result must not change when the engine is re-armed under it: it
// keeps its Tasks and Timeline, which the next run records elsewhere.
func TestRunnerMatchesFresh(t *testing.T) {
	lut, deep, sc, eval, cfg := streamFixture(t, 600, 11)
	if load := offeredLoad(deep); load <= 1.3 {
		t.Fatalf("deep stream offers %.2f engines of work, want > 1.3", load)
	}
	cfg.Requests, cfg.RatePerSec = 300, 10
	shallow, err := workload.Generate(sc, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if load := offeredLoad(shallow); load >= 0.5 {
		t.Fatalf("shallow stream offers %.2f engines of work, want < 0.5", load)
	}
	captures := []struct {
		name string
		opts sched.Options
	}{
		{"full", sched.Options{}},
		{"full+tasks+timeline", sched.Options{RecordTasks: true, RecordTimeline: true}},
		{"bounded+exemplars", sched.Options{BoundedCapture: true, Exemplars: 16, ExemplarSeed: 3}},
	}
	for name, mk := range lineup(lut) {
		var r sched.Runner
		s := mk()
		for _, c := range captures {
			first, err := r.Run(s, sched.SortedSource(deep), c.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.name, err)
			}
			kept := deepCopy(first)
			got, err := r.Run(s, sched.SortedSource(shallow), c.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.name, err)
			}
			want, err := sched.RunStream(mk(), sched.SortedSource(shallow), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: a recycled run diverges from a fresh one (ANTT %v vs %v, %d vs %d preemptions)",
					name, c.name, got.ANTT, want.ANTT, got.Preemptions, want.Preemptions)
			}
			if !reflect.DeepEqual(first, kept) {
				t.Errorf("%s/%s: the next run changed the deep run's Result", name, c.name)
			}
		}
	}
}

// TestWarmRunnerAllocations: once a run has grown the engine's storage
// and the scheduler's states, rerunning the stream on the same Runner
// with the emptied Dysta allocates only the source and the Result's
// per-model slice (2 values), the same count at 300 and at 600 requests
// (1.31 and 1.35 engines of work). Given a slot for the per-model slice
// (RunInto), it allocates only the source.
func TestWarmRunnerAllocations(t *testing.T) {
	lut, reqs, _, _, _ := streamFixture(t, 600, 13)
	slot := make([]sched.ModelMetrics, 3)
	for _, c := range []struct {
		slot []sched.ModelMetrics
		want float64
	}{{nil, 2}, {slot, 1}} {
		count := map[int]float64{}
		for _, n := range []int{300, 600} {
			var r sched.Runner
			s := core.NewDefault(lut)
			run := func() {
				if _, err := r.RunInto(s, sched.SortedSource(reqs[:n]), sched.Options{}, c.slot); err != nil {
					t.Fatal(err)
				}
			}
			run()
			count[n] = testing.AllocsPerRun(5, run)
		}
		if count[300] != count[600] || count[600] > c.want {
			t.Errorf("slot of %d: a warm rerun made %v allocations at 300 requests and %v at 600; want the same, at most %v",
				len(c.slot), count[300], count[600], c.want)
		}
	}
}
