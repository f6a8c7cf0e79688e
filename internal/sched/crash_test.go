package sched

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"sparsedysta/internal/workload"
)

// TestExtractAtRunInstant pins the tie-break when an extraction lands at
// the exact instant a queued task would start running: the control plane
// wins. Until Step commits the scheduling decision, the task has executed
// nothing (NextLayer 0) and Extract succeeds — the engine then picks
// someone else at the same instant. The moment Step commits, the same
// task is started and Extract must refuse it, loudly. "Becomes running"
// is therefore a property of the committed schedule, not of the clock:
// two observers at the same virtual instant see one consistent answer
// determined by whether Step has run.
func TestExtractAtRunInstant(t *testing.T) {
	a := synthReq(0, "a", 0, time.Millisecond, 2, 100)
	b := synthReq(1, "a", 0, time.Millisecond, 2, 100)

	// Before the commit: task 0 is FCFS's next pick at t=0, but it has
	// not run — extraction at its would-be start instant succeeds.
	e := NewEngine(NewFCFS(), Options{})
	if err := e.Inject(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(b, 0); err != nil {
		t.Fatal(err)
	}
	if at, ok := e.NextEvent(); !ok || at != 0 {
		t.Fatalf("next event %v, %v; want 0, true", at, ok)
	}
	got, err := e.Extract(0)
	if err != nil {
		t.Fatalf("Extract at the run instant, before the commit: %v", err)
	}
	if got.NextLayer != 0 || got.ExecTime != 0 {
		t.Fatalf("extracted task has progress: %d layers, %v exec", got.NextLayer, got.ExecTime)
	}
	// The engine now runs task 1 at the same instant.
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if b.Trace.NumLayers() != 2 {
		t.Fatal("unexpected trace shape")
	}

	// After the commit: the same extraction refuses with a started-task
	// error naming the progress.
	e2 := NewEngine(NewFCFS(), Options{})
	if err := e2.Inject(synthReq(0, "a", 0, time.Millisecond, 2, 100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Step(); err != nil { // commits layer 0 at t=0
		t.Fatal(err)
	}
	_, err = e2.Extract(0)
	if err == nil {
		t.Fatal("Extract of a started task succeeded")
	}
	if !strings.Contains(err.Error(), "started") {
		t.Fatalf("error does not name the started-task refusal: %v", err)
	}
}

// TestCrashClassifiesOutstanding: Crash returns never-started work
// (pending and delivered alike) as queued and partially-executed work as
// started, in ID order, with scheduler-facing state scrubbed; the sealed
// incarnation's books balance (no drops, only completions).
func TestCrashClassifiesOutstanding(t *testing.T) {
	e := NewEngine(NewFCFS(), Options{})
	// Four layers of 1ms each. Request 0 runs first; crash at 2.5ms
	// virtual time, after two layers committed.
	reqs := []*workload.Request{
		synthReq(0, "a", 0, time.Millisecond, 4, 100),                    // running at crash
		synthReq(1, "a", 500*time.Microsecond, time.Millisecond, 4, 100), // delivered, never started
		synthReq(2, "a", 30*time.Millisecond, time.Millisecond, 4, 100),  // still pending at crash
	}
	for _, r := range reqs {
		if err := e.Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	// Commit scheduling points until the next would land at or past
	// 2.5ms — the cluster's crash discipline.
	for {
		at, ok := e.NextEvent()
		if !ok || at >= 2500*time.Microsecond {
			break
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	queued, started, err := e.Crash(2500 * time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(queued) != 2 || queued[0].ID != 1 || queued[1].ID != 2 {
		t.Fatalf("queued = %v", ids(queued))
	}
	if len(started) != 1 || started[0].ID != 0 {
		t.Fatalf("started = %v", ids(started))
	}
	if started[0].NextLayer == 0 || started[0].ExecTime == 0 {
		t.Fatalf("started task shows no progress: layer %d, exec %v",
			started[0].NextLayer, started[0].ExecTime)
	}
	for _, task := range append(append([]*Task(nil), queued...), started...) {
		if task.Attachment != nil {
			t.Errorf("task %d keeps a scheduler attachment through the crash", task.ID)
		}
	}
	// The sealed incarnation completed nothing and dropped nothing: the
	// crash took every outstanding request off its books.
	res := e.Finish()
	if res.Requests != 0 || res.Dropped != 0 || res.Offered != 0 {
		t.Errorf("sealed incarnation books: %d requests, %d dropped, %d offered",
			res.Requests, res.Dropped, res.Offered)
	}
	if err := CheckOutcomeConservation(res); err != nil {
		t.Error(err)
	}
	// Crashing a finished engine is an error.
	if _, _, err := e.Crash(3 * time.Millisecond); err == nil {
		t.Error("Crash after Finish succeeded")
	}
}

// TestCrashAfterCompletions: completions before the crash reach the
// Observer, and the crash re-arms the engine as a fresh incarnation whose
// books hold nothing of the dying one's.
func TestCrashAfterCompletions(t *testing.T) {
	var observed []int
	e := NewEngine(NewFCFS(), Options{Observer: func(o TaskOutcome) { observed = append(observed, o.ID) }})
	short := synthReq(0, "a", 0, time.Millisecond, 1, 100)
	long := synthReq(1, "a", 0, time.Millisecond, 8, 100)
	for _, r := range []*workload.Request{short, long} {
		if err := e.Inject(r, 0); err != nil {
			t.Fatal(err)
		}
	}
	for {
		at, ok := e.NextEvent()
		if !ok || at >= 1500*time.Microsecond {
			break
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	queued, started, err := e.Crash(1500 * time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(queued) != 0 || len(started) != 1 {
		t.Fatalf("queued %v, started %v", ids(queued), ids(started))
	}
	if len(observed) != 1 || observed[0] != 0 {
		t.Fatalf("observer saw completions %v, want [0]", observed)
	}
	if e.Now() != 0 || e.BusyTime() != 0 || e.Preemptions() != 0 || e.Completed() != 0 || e.Outstanding() != 0 {
		t.Errorf("re-armed engine: now %v, busy %v, %d preemptions, %d completed, %d outstanding; want all zero",
			e.Now(), e.BusyTime(), e.Preemptions(), e.Completed(), e.Outstanding())
	}
	res := e.Finish()
	if res.Requests != 0 || res.Dropped != 0 || res.Offered != 0 {
		t.Errorf("re-armed books: %d requests, %d dropped, %d offered",
			res.Requests, res.Dropped, res.Offered)
	}
	if err := CheckOutcomeConservation(res); err != nil {
		t.Error(err)
	}
}

// TestRestartRewindsToZero: Restart returns a partially-executed task to
// the never-started state — adoptable again — while preserving identity,
// arrival and SLO, and counting the attempt.
func TestRestartRewindsToZero(t *testing.T) {
	e := NewEngine(NewFCFS(), Options{})
	r := synthReq(7, "a", time.Millisecond, time.Millisecond, 4, 100)
	if err := e.Inject(r, r.Arrival); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	_, started, err := e.Crash(3 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 {
		t.Fatalf("started = %v", ids(started))
	}
	task := started[0]
	remBefore := task.TrueRemaining()
	task.Restart()
	if task.NextLayer != 0 || task.ExecTime != 0 || task.Done || task.Completion != 0 {
		t.Errorf("Restart left progress: %+v", task)
	}
	if task.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", task.Attempts)
	}
	if task.TrueRemaining() != task.TrueIsolated() {
		t.Errorf("ground-truth remaining %v not rewound to %v",
			task.TrueRemaining(), task.TrueIsolated())
	}
	if remBefore == task.TrueRemaining() {
		t.Error("test vacuous: no progress existed before Restart")
	}
	if task.ID != 7 || task.Arrival != time.Millisecond {
		t.Errorf("Restart rewrote identity: ID %d, arrival %v", task.ID, task.Arrival)
	}
	// The restarted task is adoptable and completes normally elsewhere.
	e2 := NewEngine(NewFCFS(), Options{})
	if err := e2.Adopt(task, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := e2.NextEvent(); !ok {
			break
		}
		if _, err := e2.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := e2.Finish()
	if res.Requests != 1 {
		t.Fatalf("restarted task did not complete: %+v", res)
	}
	// Turnaround measures from the ORIGINAL arrival: the failure's delay
	// is paid in the retry's own latency.
	if res.MeanLatency <= 4*time.Millisecond {
		t.Errorf("mean latency %v does not include the pre-crash wait", res.MeanLatency)
	}
}

func ids(tasks []*Task) []int {
	out := make([]int, len(tasks))
	for i, t := range tasks {
		out[i] = t.ID
	}
	return out
}

// newestFirst runs the latest arrival (highest ID on a tie), so every
// arrival preempts the running request. It keeps no per-task state.
type newestFirst struct{}

func (newestFirst) Name() string                                       { return "newest-first" }
func (newestFirst) OnArrival(*Task, time.Duration)                     {}
func (newestFirst) OnLayerComplete(*Task, int, float64, time.Duration) {}
func (newestFirst) PickNext(ready []*Task, _ time.Duration) *Task {
	best := ready[0]
	for _, t := range ready[1:] {
		if t.Arrival > best.Arrival || (t.Arrival == best.Arrival && t.ID > best.ID) {
			best = t
		}
	}
	return best
}

// TestFinishReportsPreemptionsWithoutCompletions: Result.Preemptions
// counts every switch, so an engine that preempted but completed nothing
// still reports its preemptions and its timeline.
func TestFinishReportsPreemptionsWithoutCompletions(t *testing.T) {
	long := synthReq(0, "long", 0, 10*time.Millisecond, 4, 100)
	short := synthReq(1, "short", 5*time.Millisecond, time.Millisecond, 2, 100)
	e := NewEngine(newestFirst{}, Options{RecordTimeline: true})
	for _, r := range []*workload.Request{long, short} {
		if err := e.Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	// Long runs 0-10ms; short preempts it at 10ms and runs one layer.
	for i := 0; i < 2; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Finish()
	if res.Requests != 0 || res.Dropped != 2 {
		t.Fatalf("%d completed, %d dropped; want 0 and 2", res.Requests, res.Dropped)
	}
	if res.Preemptions != 1 {
		t.Errorf("Finish reports %d preemptions, want 1", res.Preemptions)
	}
	if res.Timeline == nil {
		t.Fatal("Finish dropped the recorded timeline")
	}
	// Spans long, short: the one preemption.
	if res.Timeline.Switches() != res.Preemptions {
		t.Errorf("switches = %d, preemptions = %d", res.Timeline.Switches(), res.Preemptions)
	}
}

// TestTaskRequestRebuildsRequest: Task.Request returns the request the
// task wraps (ID, Key, Arrival, SLO and the very trace slices) whatever
// the task's progress, and after Restart; failover re-dispatches through
// it.
func TestTaskRequestRebuildsRequest(t *testing.T) {
	r := synthReq(7, "m", 3*time.Millisecond, time.Millisecond, 3, 10)
	e := NewEngine(NewFCFS(), Options{})
	if err := e.Inject(r, r.Arrival); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	_, started, err := e.Crash(e.Now())
	if err != nil {
		t.Fatal(err)
	}
	task := started[0]
	check := func(label string) {
		t.Helper()
		got := task.Request()
		if got.ID != r.ID || got.Key() != r.Key() || got.Arrival != r.Arrival || got.SLO != r.SLO {
			t.Errorf("%s: rebuilt %d/%v at %v (SLO %v), want %d/%v at %v (SLO %v)", label,
				got.ID, got.Key(), got.Arrival, got.SLO, r.ID, r.Key(), r.Arrival, r.SLO)
		}
		if unsafe.SliceData(got.Trace.LayerLatency) != unsafe.SliceData(r.Trace.LayerLatency) ||
			len(got.Trace.LayerLatency) != len(r.Trace.LayerLatency) ||
			unsafe.SliceData(got.Trace.LayerSparsity) != unsafe.SliceData(r.Trace.LayerSparsity) ||
			len(got.Trace.LayerSparsity) != len(r.Trace.LayerSparsity) {
			t.Errorf("%s: rebuilt request does not share the original trace", label)
		}
	}
	if task.LastRun == r.Arrival || task.NextLayer == 0 {
		t.Fatalf("task shows no progress: last run %v, layer %d", task.LastRun, task.NextLayer)
	}
	check("started")
	task.Restart()
	check("restarted")
}
