package sched

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// synthReq builds a request with uniform per-layer latency.
func synthReq(id int, model string, arrival, layerLat time.Duration, layers int, sloMult float64) *workload.Request {
	tr := trace.SampleTrace{
		Key:           trace.NewKey(model, sparsity.Dense),
		LayerLatency:  make([]time.Duration, layers),
		LayerSparsity: make([]float64, layers),
	}
	for i := range tr.LayerLatency {
		tr.LayerLatency[i] = layerLat
		tr.LayerSparsity[i] = 0.5
	}
	return &workload.Request{
		ID:      id,
		Trace:   &tr,
		Arrival: arrival,
		SLO:     time.Duration(float64(layerLat) * float64(layers) * sloMult),
	}
}

// synthLUT builds a profiling LUT whose averages equal the synthetic
// traces exactly.
func synthLUT(reqs ...*workload.Request) *trace.StatsSet {
	store := trace.NewStore()
	for _, r := range reqs {
		store.Add(r.Key(), []trace.SampleTrace{*r.Trace})
	}
	set, err := trace.NewStatsSet(store)
	if err != nil {
		panic(err)
	}
	return set
}

// synthEstimator is the estimator over synthLUT.
func synthEstimator(reqs ...*workload.Request) *Estimator { return NewEstimator(synthLUT(reqs...)) }

// newTask wraps a request in a task of its own, outside any engine.
func newTask(r *workload.Request) *Task {
	t := new(Task)
	t.wrap(r)
	return t
}

// TestInjectRefusesTracelessRequest: Inject runs CheckArrival, so it
// refuses a request without a trace, or whose trace has no layer or
// lacks a layer's sparsity (which Step used to index past their ends),
// or that arrives before the clock starts or has a deadline past the
// largest time.Duration (which it used to serve and score: an NTT
// counting time before the clock, a 2 ms run counted late), with an
// error naming it, before it takes a task from the list, so the engine
// then serves a valid request exactly as a fresh one does.
func TestInjectRefusesTracelessRequest(t *testing.T) {
	e := NewEngine(NewFCFS(), Options{})
	key := trace.NewKey("a", sparsity.Dense)
	early := synthReq(6, "a", -5*time.Millisecond, time.Millisecond, 2, 10)
	endless := synthReq(7, "a", time.Millisecond, time.Millisecond, 2, 10)
	endless.SLO = math.MaxInt64 - 10
	for _, c := range []struct {
		r    *workload.Request
		want string
	}{
		{&workload.Request{ID: 3, SLO: 1}, "sched: request 3 has no trace"},
		{&workload.Request{ID: 4, SLO: 1, Trace: &trace.SampleTrace{Key: key}},
			"sched: request 4 has a trace with no layers"},
		{&workload.Request{ID: 5, SLO: 1, Trace: &trace.SampleTrace{Key: key, LayerLatency: []time.Duration{1, 2}, LayerSparsity: []float64{0.5}}},
			"sched: request 5 has a trace with 2 layer latencies and 1 sparsities"},
		{early, "sched: request 6 arrives at -5ms, before the clock starts at 0"},
		{endless, fmt.Sprintf("sched: request 7's deadline, arrival 1ms + SLO %v, is past the largest time.Duration", endless.SLO)},
	} {
		if err := e.Inject(c.r, 0); err == nil || err.Error() != c.want {
			t.Fatalf("Inject of request %d: %v, want %q", c.r.ID, err, c.want)
		}
		if e.tasks.held != 0 || e.Outstanding() != 0 {
			t.Fatalf("the refused request left %d tasks taken and %d outstanding", e.tasks.held, e.Outstanding())
		}
	}
	results := make([]Result, 2)
	for i, eng := range []*Engine{e, NewEngine(NewFCFS(), Options{})} {
		r := synthReq(0, "a", time.Millisecond, time.Millisecond, 3, 10)
		if err := eng.Inject(r, 0); err != nil {
			t.Fatal(err)
		}
		for !eng.Drained() {
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		results[i] = eng.Finish()
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("after the refusal:\n got %+v\nwant %+v (a fresh engine)", results[0], results[1])
	}
}

// TestReadyQueueHoldsItsFirstTasksInline: a fresh engine whose ready set
// never passes heapInline tasks keeps them in its queue's inline array,
// allocating no backing array; a larger ready set moves the queue to one,
// which a re-armed engine keeps.
func TestReadyQueueHoldsItsFirstTasksInline(t *testing.T) {
	e := NewEngine(NewSJF(synthEstimator(synthReq(0, "a", 0, time.Millisecond, 2, 10))), Options{})
	inline := func() bool { return unsafe.SliceData(e.ready.tasks) == &e.ready.inline[0] }
	fill := func(n int) {
		t.Helper()
		for id := range n {
			if err := e.Inject(synthReq(id, "a", 0, time.Millisecond, 2, 10), 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.ready.Len() != n {
			t.Fatalf("%d tasks ready, want %d", e.ready.Len(), n)
		}
	}
	fill(heapInline)
	if !inline() {
		t.Fatalf("%d ready tasks moved the queue off its inline array", heapInline)
	}
	for !e.Drained() {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !inline() {
		t.Fatal("draining moved the queue off its inline array")
	}
	fill(heapInline + 1)
	if inline() || cap(e.ready.tasks) < heapInline+1 {
		t.Fatalf("%d ready tasks fit a queue of capacity %d", heapInline+1, cap(e.ready.tasks))
	}
	grown := unsafe.SliceData(e.ready.tasks)
	if _, _, err := e.Crash(e.Now()); err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(e.ready.tasks) != grown || e.ready.Len() != 0 {
		t.Fatal("the re-armed engine dropped its grown ready queue")
	}
}

func TestRunEmptyStream(t *testing.T) {
	if _, err := Run(NewFCFS(), nil, Options{}); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestRunRejectsNegativeArrivals: the engine's clock starts at 0, so a
// request arriving before it would be delivered at 0 with the gap
// charged to its latency. Run and RunStream must reject it with an error
// naming the request and its arrival, just before 0 and well before it.
func TestRunRejectsNegativeArrivals(t *testing.T) {
	for _, at := range []time.Duration{-1, -5 * time.Millisecond} {
		reqs := []*workload.Request{
			synthReq(0, "a", at, time.Millisecond, 4, 10),
			synthReq(1, "a", 2*time.Millisecond, time.Millisecond, 4, 10),
			synthReq(2, "a", 3*time.Millisecond, time.Millisecond, 4, 10),
		}
		want := fmt.Sprintf("request 0 arrives at %v", at)
		for name, run := range map[string]func() error{
			"Run":       func() error { _, err := Run(NewFCFS(), reqs, Options{}); return err },
			"RunStream": func() error { _, err := RunStream(NewFCFS(), NewSliceSource(reqs), Options{}); return err },
		} {
			if err := run(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with the first arrival at %v: got %v, want an error containing %q", name, at, err, want)
			}
		}
	}
}

// TestSortedSourceCopiesOnlyUnsorted: the source Run and cluster.Run
// feed their loops wraps a sorted slice as is, and an unsorted one as a
// stably sorted copy, leaving the caller's slice in its order; Run over
// the unsorted slice equals Run over its stable sort.
func TestSortedSourceCopiesOnlyUnsorted(t *testing.T) {
	a := synthReq(0, "a", 0, time.Millisecond, 4, 10)
	b := synthReq(1, "b", 5*time.Millisecond, time.Millisecond, 2, 10)
	c := synthReq(2, "c", 5*time.Millisecond, 2*time.Millisecond, 3, 10)
	sorted := []*workload.Request{a, b, c}
	if src := SortedSource(sorted); &src.reqs[0] != &sorted[0] {
		t.Error("a sorted slice was copied")
	}
	unsorted := []*workload.Request{c, a, b}
	var ids []int
	for src := SortedSource(unsorted); ; {
		r, ok := src.Next()
		if !ok {
			break
		}
		ids = append(ids, r.ID)
	}
	if !reflect.DeepEqual(ids, []int{0, 2, 1}) {
		t.Errorf("unsorted slice yielded IDs %v, want [0 2 1] (arrival order, ties in slice order)", ids)
	}
	if unsorted[0] != c || unsorted[1] != a || unsorted[2] != b {
		t.Error("the caller's unsorted slice was reordered")
	}
	got, err := Run(NewFCFS(), unsorted, Options{RecordTasks: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(NewFCFS(), []*workload.Request{a, c, b}, Options{RecordTasks: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Run over an unsorted slice diverges from Run over its stable sort:\n%+v\nvs\n%+v", got, want)
	}
}

// TestFCFSSequential verifies the engine's arithmetic on a hand-checked
// two-task scenario: task B arrives while A runs and must wait for all of
// A under FCFS.
func TestFCFSSequential(t *testing.T) {
	a := synthReq(0, "a", 0, 10*time.Millisecond, 4, 100) // isolated 40ms
	b := synthReq(1, "b", 5*time.Millisecond, 10*time.Millisecond, 2, 100)
	res, err := Run(NewFCFS(), []*workload.Request{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A: finishes at 40ms, turnaround 40ms, NTT 1.0.
	// B: waits until 40ms, finishes at 60ms, turnaround 55ms, NTT 2.75.
	wantANTT := (1.0 + 55.0/20.0) / 2
	if math.Abs(res.ANTT-wantANTT) > 1e-9 {
		t.Errorf("ANTT = %v, want %v", res.ANTT, wantANTT)
	}
	if res.ViolationRate != 0 {
		t.Errorf("violation rate = %v", res.ViolationRate)
	}
	if res.Requests != 2 {
		t.Errorf("requests = %d", res.Requests)
	}
	if res.Makespan != 60*time.Millisecond {
		t.Errorf("makespan = %v", res.Makespan)
	}
	if res.Preemptions != 0 {
		t.Errorf("FCFS made %d preemptions", res.Preemptions)
	}
}

// TestSJFPreempts verifies layer-boundary preemption: a short job arriving
// mid-execution of a long job runs to completion first under SJF.
func TestSJFPreempts(t *testing.T) {
	long := synthReq(0, "long", 0, 10*time.Millisecond, 10, 100) // 100ms isolated
	short := synthReq(1, "short", 5*time.Millisecond, 1*time.Millisecond, 2, 100)
	est := synthEstimator(long, short)
	res, err := Run(NewSJF(est), []*workload.Request{long, short}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Short arrives at 5ms during long's first layer (completes 10ms),
	// then runs its 2ms and finishes at 12ms: turnaround 7ms, NTT 3.5.
	// Long finishes at 102ms: NTT 1.02.
	wantANTT := (1.02 + 3.5) / 2
	if math.Abs(res.ANTT-wantANTT) > 1e-9 {
		t.Errorf("ANTT = %v, want %v", res.ANTT, wantANTT)
	}
	if res.Preemptions == 0 {
		t.Error("SJF never preempted")
	}
}

func TestViolationAccounting(t *testing.T) {
	// SLO multiplier 1.0: any queueing delay violates.
	a := synthReq(0, "a", 0, 10*time.Millisecond, 2, 1)
	b := synthReq(1, "b", 0, 10*time.Millisecond, 2, 1)
	res, err := Run(NewFCFS(), []*workload.Request{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A meets exactly; B finishes at 40ms vs deadline 20ms.
	if res.ViolationRate != 0.5 {
		t.Errorf("violation rate = %v, want 0.5", res.ViolationRate)
	}
}

func TestPreemptionOverhead(t *testing.T) {
	long := synthReq(0, "long", 0, 10*time.Millisecond, 4, 100)
	short := synthReq(1, "short", 5*time.Millisecond, time.Millisecond, 1, 100)
	est := synthEstimator(long, short)
	base, _ := Run(NewSJF(est), []*workload.Request{long, short}, Options{})
	withOv, _ := Run(NewSJF(synthEstimator(long, short)), []*workload.Request{long, short},
		Options{PreemptionOverhead: time.Millisecond})
	if withOv.Makespan <= base.Makespan {
		t.Errorf("preemption overhead did not extend makespan: %v vs %v",
			withOv.Makespan, base.Makespan)
	}
}

func TestIdleGapHandling(t *testing.T) {
	a := synthReq(0, "a", 0, time.Millisecond, 1, 100)
	b := synthReq(1, "b", time.Second, time.Millisecond, 1, 100)
	res, err := Run(NewFCFS(), []*workload.Request{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ANTT != 1.0 {
		t.Errorf("idle-gap ANTT = %v, want 1.0", res.ANTT)
	}
}

// badScheduler returns a task outside the ready queue.
type badScheduler struct{}

func (badScheduler) Name() string                                       { return "bad" }
func (badScheduler) OnArrival(*Task, time.Duration)                     {}
func (badScheduler) OnLayerComplete(*Task, int, float64, time.Duration) {}
func (badScheduler) PickNext(ready []*Task, _ time.Duration) *Task {
	return &Task{}
}

func TestEngineRejectsForeignPick(t *testing.T) {
	a := synthReq(0, "a", 0, time.Millisecond, 1, 100)
	if _, err := Run(badScheduler{}, []*workload.Request{a}, Options{}); err == nil {
		t.Fatal("foreign pick accepted")
	}
}

// TestWorkConservation: with zero preemption overhead, makespan of a
// saturated system equals total service time, independent of scheduler.
func TestWorkConservation(t *testing.T) {
	var reqs []*workload.Request
	var total time.Duration
	for i := 0; i < 10; i++ {
		r := synthReq(i, "m", 0, time.Millisecond, 5, 1000)
		reqs = append(reqs, r)
		total += r.Trace.Total()
	}
	est := synthEstimator(reqs[0])
	for _, s := range []Scheduler{NewFCFS(), NewPlanaria(est)} {
		res, err := Run(s, reqs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != total {
			t.Errorf("%s: makespan %v, want %v", s.Name(), res.Makespan, total)
		}
		if res.ANTT < 1 {
			t.Errorf("%s: ANTT %v < 1", s.Name(), res.ANTT)
		}
	}
}

func TestTaskAccessors(t *testing.T) {
	r := synthReq(3, "m", 10*time.Millisecond, 2*time.Millisecond, 4, 10)
	task := newTask(r)
	if task.NumLayers() != 4 {
		t.Errorf("NumLayers = %d", task.NumLayers())
	}
	if task.TrueIsolated() != 8*time.Millisecond {
		t.Errorf("TrueIsolated = %v", task.TrueIsolated())
	}
	if task.TrueRemaining() != 8*time.Millisecond {
		t.Errorf("TrueRemaining = %v", task.TrueRemaining())
	}
	// TrueRemaining is maintained by the engine as layers execute.
	task.NextLayer = 2
	task.trueRemaining -= 4 * time.Millisecond
	if task.TrueRemaining() != 4*time.Millisecond {
		t.Errorf("TrueRemaining after 2 layers = %v", task.TrueRemaining())
	}
	if task.Deadline() != 10*time.Millisecond+80*time.Millisecond {
		t.Errorf("Deadline = %v", task.Deadline())
	}
	// Waited 5ms of the 7ms since arrival (2ms executing).
	task.ExecTime = 2 * time.Millisecond
	if got := task.WaitTime(17 * time.Millisecond); got != 5*time.Millisecond {
		t.Errorf("WaitTime = %v", got)
	}
	if got := task.WaitTime(0); got != 0 {
		t.Errorf("WaitTime before arrival = %v", got)
	}
}

func TestAverageResults(t *testing.T) {
	rs := []Result{
		{Scheduler: "x", ANTT: 1, ViolationRate: 0.2, Throughput: 10,
			MeanLatency: 10 * time.Millisecond, Requests: 100},
		{Scheduler: "x", ANTT: 3, ViolationRate: 0.4, Throughput: 20,
			MeanLatency: 30 * time.Millisecond, Requests: 100},
	}
	avg := mustAverage(t, rs)
	if avg.ANTT != 2 || math.Abs(avg.ViolationRate-0.3) > 1e-12 || avg.Throughput != 15 {
		t.Errorf("averages wrong: %+v", avg)
	}
	if avg.MeanLatency != 20*time.Millisecond {
		t.Errorf("MeanLatency = %v", avg.MeanLatency)
	}
	if avg.Requests != 100 {
		t.Errorf("Requests = %d", avg.Requests)
	}
	if empty := mustAverage(t, nil); empty.Scheduler != "" {
		t.Error("empty average not zero")
	}
}

func TestPerModelBreakdown(t *testing.T) {
	a := synthReq(0, "alpha", 0, 10*time.Millisecond, 2, 1) // meets exactly
	b := synthReq(1, "beta", 0, 10*time.Millisecond, 2, 1)  // waits, violates
	res, err := Run(NewFCFS(), []*workload.Request{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerModel) != 2 {
		t.Fatalf("PerModel has %d entries", len(res.PerModel))
	}
	alpha, beta := res.PerModel[0], res.PerModel[1]
	if alpha.Model != "alpha" || beta.Model != "beta" {
		t.Fatalf("PerModel names %q, %q; want alpha, beta", alpha.Model, beta.Model)
	}
	if alpha.Requests != 1 || beta.Requests != 1 {
		t.Errorf("per-model counts wrong: %+v %+v", alpha, beta)
	}
	if alpha.ANTT != 1.0 {
		t.Errorf("alpha ANTT = %v, want 1", alpha.ANTT)
	}
	if beta.ANTT != 2.0 {
		t.Errorf("beta ANTT = %v, want 2 (waited its own length)", beta.ANTT)
	}
	if alpha.ViolationRate != 0 || beta.ViolationRate != 1 {
		t.Errorf("per-model violations wrong: %+v %+v", alpha, beta)
	}
}

func TestSeedSpread(t *testing.T) {
	rs := []Result{
		{ANTT: 1, ViolationRate: 0.1},
		{ANTT: 3, ViolationRate: 0.3},
	}
	anttSD, violSD := SeedSpread(rs)
	if anttSD != 1 {
		t.Errorf("ANTT SD = %v, want 1", anttSD)
	}
	if math.Abs(violSD-0.1) > 1e-12 {
		t.Errorf("violation SD = %v, want 0.1", violSD)
	}
	if a, v := SeedSpread(rs[:1]); a != 0 || v != 0 {
		t.Error("single-seed spread not zero")
	}
}

// TestLatencyScale: a scaled engine runs the same schedule at scaled
// speed — exact doubling for scale 2, exact halving for 0.5 — while the
// ground-truth isolated latency (and so the SLO contract) stays in
// reference units. Scale 1 (and 0) must be bit-identical to the unscaled
// engine.
func TestLatencyScale(t *testing.T) {
	reqs := []*workload.Request{
		synthReq(0, "a", 0, 4*time.Millisecond, 3, 10),
		synthReq(1, "b", 1*time.Millisecond, 2*time.Millisecond, 2, 10),
	}
	run := func(scale float64) Result {
		res, err := Run(NewFCFS(), reqs, Options{LatencyScale: scale, RecordTasks: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	if zero := run(0); !reflect.DeepEqual(ref, zero) {
		t.Error("LatencyScale 0 differs from 1 (both mean reference speed)")
	}
	slow := run(2)
	// FCFS on this stream never idles after the first arrival, so every
	// execution interval doubles: request 0 completes at 2x its reference
	// completion, and the trailing request's turnaround more than doubles.
	if want := ref.Tasks[0].Completion * 2; slow.Tasks[0].Completion != want {
		t.Errorf("scaled completion %v, want exactly %v", slow.Tasks[0].Completion, want)
	}
	// Isolated stays the reference contract, so NTT doubles with latency.
	if slow.Tasks[0].Isolated != ref.Tasks[0].Isolated {
		t.Errorf("scaling changed the isolated latency contract: %v vs %v",
			slow.Tasks[0].Isolated, ref.Tasks[0].Isolated)
	}
	if slow.ANTT <= ref.ANTT {
		t.Errorf("half-speed ANTT %.3f not above reference %.3f", slow.ANTT, ref.ANTT)
	}
	fast := run(0.5)
	if fast.MeanLatency >= ref.MeanLatency {
		t.Errorf("double-speed mean latency %v not below reference %v", fast.MeanLatency, ref.MeanLatency)
	}
}

// TestLatencyScaleOverflowFails: a scaled layer latency, a scaled
// preemption overhead, or a clock after either, past the largest
// time.Duration fails the run with an error naming the latency scale.
// Converting the product wrapped it instead: scale 1e13 ran a stream to
// a 1 ms makespan and ANTT 0, and 3e12 to a negative ANTT, both without
// an error. SJF preempts the long request for the short one at the
// first layer boundary, so the overhead is charged too.
func TestLatencyScaleOverflowFails(t *testing.T) {
	reqs := []*workload.Request{
		synthReq(0, "long", 0, time.Millisecond, 20, 10),
		synthReq(1, "short", time.Millisecond, time.Millisecond, 2, 10),
	}
	for _, c := range []struct {
		scale    float64
		overhead time.Duration
	}{
		{1e13, 0},                            // one layer is 1e19 ns
		{3e12, 0},                            // each layer fits, the fourth clock does not
		{1e6, math.MaxInt64 / 1_000_000 * 2}, // a layer fits, the overhead does not
	} {
		res, err := Run(NewSJF(synthEstimator(reqs...)), reqs, Options{LatencyScale: c.scale, PreemptionOverhead: c.overhead})
		want := fmt.Sprintf("latency scale %g", c.scale)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("scale %g, overhead %v: err %v (makespan %v, ANTT %v), want one naming %q",
				c.scale, c.overhead, err, res.Makespan, res.ANTT, want)
		}
	}
}

// TestGoodputAccounting: goodput is SLO-met completions per makespan
// second — Throughput * (1 - ViolationRate) by construction.
func TestGoodputAccounting(t *testing.T) {
	reqs := []*workload.Request{
		synthReq(0, "a", 0, 4*time.Millisecond, 3, 1.01),                  // tight: violated once queued behind
		synthReq(1, "a", 1*time.Millisecond, 4*time.Millisecond, 3, 1.01), // waits, violates
		synthReq(2, "a", 40*time.Millisecond, 4*time.Millisecond, 3, 10),  // relaxed, meets
	}
	res, err := Run(NewFCFS(), reqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput <= 0 || res.Goodput > res.Throughput {
		t.Fatalf("goodput %v outside (0, throughput %v]", res.Goodput, res.Throughput)
	}
	want := res.Throughput * (1 - res.ViolationRate)
	if diff := res.Goodput - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("goodput %v, want throughput*(1-viol) = %v", res.Goodput, want)
	}
}
