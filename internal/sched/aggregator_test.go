package sched

import (
	"math"
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/rng"
	"sparsedysta/internal/stats"
	"sparsedysta/internal/workload"
)

// TestAggregatorMetrics pins the metric formulas on a hand-checked fold
// of three completions, fed in completion order (which is not task-ID
// order): rates and means over the folded outcomes, the makespan from
// the caller's anchor to the last completion, per-model tallies, exact
// percentiles and the ID-ordered Tasks under full capture, and the same
// metrics from a histogram under bounded capture.
func TestAggregatorMetrics(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	completions := []TaskOutcome{
		{ID: 2, Model: "a", Arrival: ms(10), Completion: ms(30), Isolated: ms(10), NTT: 2},
		{ID: 0, Model: "b", Arrival: ms(5), Completion: ms(45), Isolated: ms(20), NTT: 2},
		{ID: 1, Model: "a", Arrival: ms(20), Completion: ms(80), Isolated: ms(10), NTT: 6, Violated: true},
	}
	full := NewAggregator(Options{RecordTasks: true})
	bounded := NewAggregator(Options{BoundedCapture: true, RecordTasks: true, Exemplars: 2, ExemplarSeed: 3})
	for _, o := range completions {
		full.Add(o)
		bounded.Add(o)
	}
	first, ok := full.FirstArrival()
	if !ok || first != ms(5) || full.Len() != 3 {
		t.Fatalf("FirstArrival %v (ok %v), Len %d; want 5ms, 3", first, ok, full.Len())
	}
	res := full.Result("X", first)
	want := Result{
		Scheduler:     "X",
		Requests:      3,
		Violations:    1,
		ANTT:          (2.0 + 2 + 6) / 3,
		ViolationRate: 1.0 / 3,
		MeanLatency:   ms(40), // (20 + 40 + 60) / 3
		P50Latency:    ms(40),
		P95Latency:    ms(58),
		P99Latency:    time.Duration(59.6 * float64(time.Millisecond)),
		Makespan:      ms(75), // earliest completed arrival 5ms to last completion 80ms
		Throughput:    3 / ms(75).Seconds(),
		Goodput:       2 / ms(75).Seconds(),
		PerModel: []ModelMetrics{
			{Model: "a", Requests: 2, ANTT: 4, ViolationRate: 0.5},
			{Model: "b", Requests: 1, ANTT: 2, ViolationRate: 0},
		},
		Tasks: []TaskOutcome{completions[1], completions[2], completions[0]},
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("full capture:\n got %+v\nwant %+v", res, want)
	}
	// An engine anchors the makespan on its own first arrival, which may
	// precede every completed one.
	if got := full.Result("X", 0); got.Makespan != ms(80) || got.Throughput != 3/ms(80).Seconds() {
		t.Errorf("anchored at 0: makespan %v, throughput %v", got.Makespan, got.Throughput)
	}

	bres := bounded.Result("X", first)
	if len(bres.Exemplars) != 2 || bres.Tasks != nil {
		t.Errorf("bounded capture kept %d exemplars and Tasks %v; want 2 and none", len(bres.Exemplars), bres.Tasks)
	}
	for _, p := range []struct {
		name        string
		exact, hist time.Duration
	}{{"p50", ms(40), bres.P50Latency}, {"p99", ms(60), bres.P99Latency}} {
		if p.hist < p.exact || p.hist-p.exact > p.exact/32+1 {
			t.Errorf("bounded %s %v not within one bucket above %v", p.name, p.hist, p.exact)
		}
	}
	bres.P50Latency, bres.P95Latency, bres.P99Latency = want.P50Latency, want.P95Latency, want.P99Latency
	bres.Exemplars, bres.Tasks = nil, want.Tasks
	if !reflect.DeepEqual(bres, want) {
		t.Errorf("bounded capture diverges beyond percentiles and payloads:\n got %+v\nwant %+v", bres, want)
	}
}

// TestAggregatorEmpty: with nothing completed, the aggregator yields only
// the scheduler name, and an engine finalized before completing anything
// reports zeroed metrics with its drop count intact (and its timeline,
// empty here because nothing ran, when it records one).
func TestAggregatorEmpty(t *testing.T) {
	a := NewAggregator(Options{RecordTasks: true})
	if _, ok := a.FirstArrival(); ok {
		t.Error("empty aggregator reports a first arrival")
	}
	if got := a.Result("X", 0); !reflect.DeepEqual(got, Result{Scheduler: "X"}) {
		t.Errorf("empty aggregator result %+v", got)
	}
	for _, opts := range []Options{{RecordTasks: true, RecordTimeline: true}, {BoundedCapture: true, Exemplars: 4}} {
		e := NewEngine(NewFCFS(), opts)
		for i := 0; i < 3; i++ {
			r := synthReq(i, "a", time.Duration(i)*time.Millisecond, time.Millisecond, 2, 10)
			if err := e.Inject(r, r.Arrival); err != nil {
				t.Fatal(err)
			}
		}
		want := Result{Scheduler: "FCFS", Dropped: 3, Offered: 3}
		if opts.RecordTimeline {
			want.Timeline = &Timeline{}
		}
		if got := e.Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("bounded=%v: all-dropped engine result %+v, want %+v", opts.BoundedCapture, got, want)
		}
	}
}

// TestAggregatorPercentilesMatchSort: full capture selects the order
// statistics its percentiles read instead of sorting the latencies, and
// each percentile equals stats.Percentile of every latency folded so
// far, bit for bit: on random and on duplicate-heavy latencies, and on a
// second Result call after more Adds, which selects again over the
// latencies the first call reordered.
func TestAggregatorPercentilesMatchSort(t *testing.T) {
	r := rng.New(3)
	for _, distinct := range []int{1 << 30, 4} {
		a := NewAggregator(Options{})
		var lats []float64
		for _, adds := range []int{1, 2, 300, 1000} {
			for range adds {
				lat := time.Duration(1 + r.Intn(distinct))
				lats = append(lats, float64(lat))
				a.Add(TaskOutcome{Model: "m", Completion: lat, NTT: 1})
			}
			res := a.Result("X", 0)
			for _, p := range []struct {
				name string
				q    float64
				got  time.Duration
			}{{"p50", 50, res.P50Latency}, {"p95", 95, res.P95Latency}, {"p99", 99, res.P99Latency}} {
				if want := time.Duration(stats.Percentile(lats, p.q)); p.got != want {
					t.Errorf("%d distinct, %d latencies: %s %v, sorted %v", distinct, len(lats), p.name, p.got, want)
				}
			}
		}
	}
}

// TestEngineMakespanAnchorsOnFirstArrival: an engine's makespan runs
// from the earliest arrival it was given, not the earliest completed
// one — a request still outstanding at an early Finish stretches the
// window it was served in.
func TestEngineMakespanAnchorsOnFirstArrival(t *testing.T) {
	long := synthReq(0, "long", 0, 10*time.Millisecond, 4, 100)
	short := synthReq(1, "short", 5*time.Millisecond, 10*time.Millisecond, 1, 100)
	e := NewEngine(NewSJF(synthEstimator(long, short)), Options{})
	for _, r := range []*workload.Request{long, short} {
		if err := e.Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	// long runs 0..10ms, then SJF preempts it for short, done at 20ms.
	for i := 0; i < 2; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Finish()
	if res.Requests != 1 || res.Dropped != 1 || res.Makespan != 20*time.Millisecond {
		t.Errorf("Requests %d, Dropped %d, Makespan %v; want 1, 1, 20ms", res.Requests, res.Dropped, res.Makespan)
	}
}

// TestReserveAllocatesOnce: after Reserve(n), the Adds of n outcomes
// allocate nothing under full capture, with or without RecordTasks,
// while the same Adds without Reserve grow the buffers. The first Add
// of each aggregator is left out of the count: it allocates the model's
// tally, which Reserve does not size.
func TestReserveAllocatesOnce(t *testing.T) {
	const n = 1000
	o := TaskOutcome{ID: 1, Model: "a", Arrival: time.Millisecond, Completion: 3 * time.Millisecond,
		Isolated: time.Millisecond, NTT: 3}
	for _, opts := range []Options{{}, {RecordTasks: true}} {
		for _, reserve := range []bool{true, false} {
			// AllocsPerRun calls the function once to warm up and once
			// to measure, each on an aggregator of its own.
			aggs := make([]*Aggregator, 2)
			for i := range aggs {
				aggs[i] = NewAggregator(opts)
				if reserve {
					aggs[i].Reserve(n)
				}
				aggs[i].Add(o)
			}
			k := 0
			allocs := testing.AllocsPerRun(1, func() {
				a := aggs[k]
				k++
				for i := 1; i < n; i++ {
					a.Add(o)
				}
			})
			if reserve && allocs != 0 {
				t.Errorf("RecordTasks=%v: %d outcomes after Reserve(%d) made %v allocations, want 0",
					opts.RecordTasks, n, n, allocs)
			}
			if !reserve && allocs == 0 {
				t.Errorf("RecordTasks=%v: %d outcomes without Reserve made no allocation, so the check shows nothing",
					opts.RecordTasks, n)
			}
		}
	}
}

// TestReserveBounds: Reserve ignores n <= 0 and bounded capture, and a
// hint past maxReserve, math.MaxInt included, reserves maxReserve
// instead of panicking or asking for more memory than any run fills.
func TestReserveBounds(t *testing.T) {
	a := NewAggregator(Options{})
	for _, n := range []int{0, -1, math.MinInt} {
		a.Reserve(n)
		if cap(a.latencies) != 0 {
			t.Fatalf("Reserve(%d) reserved %d", n, cap(a.latencies))
		}
	}
	b := NewAggregator(Options{BoundedCapture: true})
	b.Reserve(100)
	if b.latencies != nil || b.tasks != nil {
		t.Errorf("bounded capture reserved %d latencies and %d outcomes", cap(b.latencies), cap(b.tasks))
	}
	a.Add(TaskOutcome{Model: "a", Completion: time.Millisecond, Isolated: time.Millisecond, NTT: 1})
	a.Reserve(math.MaxInt)
	if cap(a.latencies) != maxReserve || len(a.latencies) != 1 {
		t.Errorf("Reserve(math.MaxInt) left len %d, cap %d; want 1, %d", len(a.latencies), cap(a.latencies), maxReserve)
	}
}

// TestBoundedAggregatorAllocations: bounded capture's histogram holds a
// window of the octaves its latencies reach. Outcomes whose latencies
// span six octaves, 8.4ms to 273ms (2^23 to 2^29 ns, as on a 16-engine
// stream), opening at the low end as a run's first completion does,
// cost a fresh aggregator 2 allocations, as many as while the histogram
// was a fixed array of 1,888 counters: the window and the model's tally
// (NewAggregator's own stays on the stack here). The window holds at
// most 8 octaves, 256 counters, and a re-armed aggregator folding the
// same outcomes allocates nothing.
func TestBoundedAggregatorAllocations(t *testing.T) {
	outcomes := make([]TaskOutcome, 600)
	for i := range outcomes {
		// Octave 23+i%6 of the nanoseconds, jittered within it.
		lat := 8400*time.Microsecond<<(i%6) + time.Duration(i*7919)
		arrival := time.Duration(i) * time.Millisecond
		outcomes[i] = TaskOutcome{ID: i, Model: "a", Arrival: arrival, Completion: arrival + lat,
			Isolated: time.Millisecond, NTT: 2}
	}
	opts := Options{BoundedCapture: true}
	fold := func(a *Aggregator) {
		for _, o := range outcomes {
			a.Add(o)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { fold(NewAggregator(opts)) }); allocs != 2 {
		t.Errorf("a fresh bounded aggregator made %v allocations, want 2", allocs)
	}
	a := NewAggregator(opts)
	fold(a)
	if n := reflect.ValueOf(a.hist).FieldByName("counts").Len(); n > 256 {
		t.Errorf("the histogram holds %d counters for six octaves, want at most 256", n)
	}
	if allocs := testing.AllocsPerRun(10, func() { a.reset(opts); fold(a) }); allocs != 0 {
		t.Errorf("a re-armed bounded aggregator made %v allocations, want 0", allocs)
	}
}
