package sched

import (
	"testing"
	"time"

	"sparsedysta/internal/workload"
)

// drainEngine steps the engine until it has no more events.
func drainEngine(t *testing.T, e *Engine) {
	t.Helper()
	for !e.Drained() {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExtractFromPending: a request injected but not yet delivered can be
// extracted without scheduler cooperation, and the donor's accounting
// forgets it entirely.
func TestExtractFromPending(t *testing.T) {
	a := synthReq(0, "a", 0, 10*time.Millisecond, 4, 100)
	b := synthReq(1, "b", 5*time.Millisecond, 10*time.Millisecond, 2, 100)
	e := NewEngine(NewFCFS(), Options{})
	if err := e.Inject(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(b, 0); err != nil {
		t.Fatal(err)
	}
	// No Step yet: both requests sit in pending.
	tk, err := e.Extract(1)
	if err != nil {
		t.Fatal(err)
	}
	if tk.ID != 1 || tk.NextLayer != 0 {
		t.Fatalf("extracted task %+v", tk)
	}
	if e.Outstanding() != 1 {
		t.Fatalf("outstanding %d after extraction", e.Outstanding())
	}
	drainEngine(t, e)
	res := e.Finish()
	if res.Requests != 1 || res.Dropped != 0 {
		t.Fatalf("donor result %+v: extracted request still counted", res)
	}
	if res.Makespan != 40*time.Millisecond {
		t.Errorf("makespan %v, want 40ms", res.Makespan)
	}
}

// TestExtractFromReady: a delivered-but-never-started request is
// extracted through the scheduler's OnExtract, which must release its
// bookkeeping — under FCFS the heap slot, whose staleness would otherwise
// resurface the departed task as a future pick.
func TestExtractFromReady(t *testing.T) {
	// Long A arrives first and runs; B arrives during A and queues.
	a := synthReq(0, "a", 0, 10*time.Millisecond, 4, 100)
	b := synthReq(1, "b", 5*time.Millisecond, 10*time.Millisecond, 2, 100)
	e := NewEngine(NewFCFS(), Options{})
	for _, r := range []*workload.Request{a, b} {
		if err := e.Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	// Two steps: both delivered, A has executed layers, B is queued.
	for i := 0; i < 2; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	tk, err := e.Extract(1)
	if err != nil {
		t.Fatal(err)
	}
	if tk.Attachment != nil {
		t.Error("extracted task still carries scheduler state")
	}
	if tk.TrueRemaining() != tk.TrueIsolated() {
		t.Errorf("never-started task TrueRemaining %v != TrueIsolated %v",
			tk.TrueRemaining(), tk.TrueIsolated())
	}
	drainEngine(t, e)
	res := e.Finish()
	if res.Requests != 1 || res.Dropped != 0 {
		t.Fatalf("donor result %+v", res)
	}
}

// TestExtractErrors: unknown IDs, started tasks, and schedulers without
// TaskExtractor all fail loudly instead of corrupting state.
func TestExtractErrors(t *testing.T) {
	a := synthReq(0, "a", 0, 10*time.Millisecond, 4, 100)
	b := synthReq(1, "b", 5*time.Millisecond, 10*time.Millisecond, 2, 100)
	e := NewEngine(NewFCFS(), Options{})
	for _, r := range []*workload.Request{a, b} {
		if err := e.Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Extract(42); err == nil {
		t.Error("unknown ID accepted")
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Extract(0); err == nil {
		t.Error("started task extracted")
	}

	// A scheduler without OnExtract refuses ready-queue extraction but
	// still allows pending extraction (which needs no cooperation).
	ne := NewEngine(noExtract{s: NewFCFS()}, Options{})
	for _, r := range []*workload.Request{a, b} {
		if err := ne.Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ne.Extract(1); err != nil {
		t.Errorf("pending extraction should not need TaskExtractor: %v", err)
	}
	if err := ne.Inject(b, b.Arrival); err != nil {
		t.Fatal(err)
	}
	// Two steps: b gets delivered to the ready queue but never runs
	// (FCFS keeps executing the earlier a).
	for i := 0; i < 2; i++ {
		if _, err := ne.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ne.Extract(1); err == nil {
		t.Error("ready-queue extraction without TaskExtractor accepted")
	}
}

// noExtract forwards the core Scheduler methods of a wrapped FCFS while
// hiding its OnExtract (an embedded field would re-export it).
type noExtract struct{ s *FCFS }

func (n noExtract) Name() string                                { return "no-extract" }
func (n noExtract) OnArrival(t *Task, now time.Duration)        { n.s.OnArrival(t, now) }
func (n noExtract) PickNext(r []*Task, now time.Duration) *Task { return n.s.PickNext(r, now) }
func (n noExtract) OnLayerComplete(t *Task, layer int, mon float64, now time.Duration) {
	n.s.OnLayerComplete(t, layer, mon, now)
}

// TestAdoptChargesVisibilityDelay: an adopted request becomes schedulable
// only at the adoption instant (extraction time + migration cost), so the
// transfer penalty lands in the request's own turnaround.
func TestAdoptChargesVisibilityDelay(t *testing.T) {
	b := synthReq(1, "b", 5*time.Millisecond, 10*time.Millisecond, 2, 100)
	donor := NewEngine(NewFCFS(), Options{})
	if err := donor.Inject(b, b.Arrival); err != nil {
		t.Fatal(err)
	}
	tk, err := donor.Extract(1)
	if err != nil {
		t.Fatal(err)
	}
	thief := NewEngine(NewFCFS(), Options{})
	const at = 30 * time.Millisecond // extraction instant + cost
	if err := thief.Adopt(tk, at); err != nil {
		t.Fatal(err)
	}
	if next, ok := thief.NextEvent(); !ok || next != at {
		t.Fatalf("next event %v ok=%v, want %v", next, ok, at)
	}
	drainEngine(t, thief)
	res := thief.Finish()
	if res.Requests != 1 {
		t.Fatalf("thief result %+v", res)
	}
	// Starts at 30ms, runs 20ms, completes at 50ms; turnaround from the
	// ORIGINAL 5ms arrival = 45ms (NTT 2.25): history is never rewritten.
	if res.MeanLatency != 45*time.Millisecond {
		t.Errorf("latency %v, want 45ms", res.MeanLatency)
	}
	if res.Makespan != 45*time.Millisecond {
		t.Errorf("makespan %v, want 45ms (from original arrival)", res.Makespan)
	}

	// Adopt guards: completed, still-queued and still-pending tasks are
	// rejected.
	if err := thief.Adopt(tk, at); err == nil {
		t.Error("completed task adopted")
	}
	d1 := synthReq(3, "b", 0, 10*time.Millisecond, 2, 100)
	d2 := synthReq(4, "b", time.Millisecond, 10*time.Millisecond, 2, 100)
	owner := NewEngine(NewFCFS(), Options{})
	for _, r := range []*workload.Request{d1, d2} {
		if err := owner.Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := owner.Step(); err != nil {
			t.Fatal(err)
		}
	}
	queued := owner.Migratable()
	if len(queued) != 1 || queued[0].ID != 4 {
		t.Fatalf("migratable %v", queued)
	}
	fresh := NewEngine(NewFCFS(), Options{})
	if err := fresh.Adopt(queued[0], 0); err == nil {
		t.Error("task still owned by a ready queue adopted")
	}
	// A task still pending on its engine is refused too: adopted, it sat
	// in both engines, and the second to run it stepped a recycled task.
	late := synthReq(5, "b", time.Second, 10*time.Millisecond, 2, 100)
	if err := owner.Inject(late, 0); err != nil {
		t.Fatal(err)
	}
	pending := owner.Migratable()
	if len(pending) != 2 || pending[1].ID != 5 {
		t.Fatalf("migratable %v", pending)
	}
	if err := fresh.Adopt(pending[1], 0); err == nil || fresh.Outstanding() != 0 {
		t.Errorf("task still pending on its engine adopted (err %v)", err)
	}
	// Extracted, it is adoptable.
	x, err := owner.Extract(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Adopt(x, 0); err != nil {
		t.Errorf("extracted pending task refused: %v", err)
	}
}

// TestExtractRepairsFirstArrival: extracting the engine's earliest
// request must stop it anchoring the donor's makespan — the window it
// defines is served elsewhere.
func TestExtractRepairsFirstArrival(t *testing.T) {
	a := synthReq(0, "a", 0, 10*time.Millisecond, 2, 100)
	b := synthReq(1, "b", 5*time.Millisecond, 10*time.Millisecond, 2, 100)
	e := NewEngine(NewFCFS(), Options{})
	for _, r := range []*workload.Request{a, b} {
		if err := e.Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Extract(0); err != nil {
		t.Fatal(err)
	}
	drainEngine(t, e)
	res := e.Finish()
	// b starts at 5ms, completes at 25ms: makespan 20ms from b's own
	// arrival, not 25ms from the departed a's.
	if res.Makespan != 20*time.Millisecond {
		t.Errorf("makespan %v, want 20ms (measured from the remaining request)", res.Makespan)
	}
}

// TestAverageResultsMigrationInvariant: seed averaging must preserve
// wins + losses == migrations even when independent rounding would not.
func TestAverageResultsMigrationInvariant(t *testing.T) {
	avg := mustAverage(t, []Result{
		{Migrations: 1, MigrationWins: 1, MigrationLosses: 0},
		{Migrations: 1, MigrationWins: 0, MigrationLosses: 1},
	})
	if avg.MigrationWins+avg.MigrationLosses != avg.Migrations {
		t.Errorf("averaged wins %d + losses %d != migrations %d",
			avg.MigrationWins, avg.MigrationLosses, avg.Migrations)
	}
}

// TestMigratableExcludesStarted: the running/started tasks never appear
// in the migratable view, and the view is in ascending ID order.
func TestMigratableExcludesStarted(t *testing.T) {
	reqs := []*workload.Request{
		synthReq(0, "a", 0, 10*time.Millisecond, 4, 100),
		synthReq(2, "b", 5*time.Millisecond, 10*time.Millisecond, 2, 100),
		synthReq(1, "b", 6*time.Millisecond, 10*time.Millisecond, 2, 100),
		synthReq(3, "b", 90*time.Millisecond, 10*time.Millisecond, 2, 100),
	}
	e := NewEngine(NewFCFS(), Options{})
	for _, r := range reqs {
		if err := e.Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Task 0 started; 1 and 2 are delivered and queued; 3 is pending.
	got := e.Migratable()
	if len(got) != 3 {
		t.Fatalf("migratable %v", got)
	}
	for i, want := range []int{1, 2, 3} {
		if got[i].ID != want {
			t.Errorf("migratable[%d] = %d, want %d (ascending ID order)", i, got[i].ID, want)
		}
	}
}

// TestMigrationEndToEnd: extract from a loaded engine, adopt on an idle
// one, and check the union of outcomes — every request completes exactly
// once with exact ground-truth accounting, for every scheduler in the
// lineup (each must release and rebuild its per-task state correctly).
func TestMigrationEndToEnd(t *testing.T) {
	mk := func() []*workload.Request {
		return []*workload.Request{
			synthReq(0, "a", 0, 10*time.Millisecond, 4, 100),
			synthReq(1, "b", 5*time.Millisecond, 10*time.Millisecond, 2, 100),
			synthReq(2, "b", 6*time.Millisecond, 10*time.Millisecond, 2, 100),
		}
	}
	est := synthEstimator(mk()...)
	for _, spec := range []struct {
		name string
		new  func() Scheduler
	}{
		{"FCFS", func() Scheduler { return NewFCFS() }},
		{"SJF", func() Scheduler { return NewSJF(est) }},
		{"PREMA", func() Scheduler { return NewPREMA(est) }},
		{"Planaria", func() Scheduler { return NewPlanaria(est) }},
		{"SDRM3", func() Scheduler { return NewSDRM3(est) }},
	} {
		reqs := mk()
		donor := NewEngine(spec.new(), Options{RecordTasks: true})
		thief := NewEngine(spec.new(), Options{RecordTasks: true})
		for _, r := range reqs {
			if err := donor.Inject(r, r.Arrival); err != nil {
				t.Fatal(err)
			}
		}
		// Deliver everything due, then migrate task 2.
		for i := 0; i < 2; i++ {
			if _, err := donor.Step(); err != nil {
				t.Fatal(err)
			}
		}
		tk, err := donor.Extract(2)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if err := thief.Adopt(tk, donor.Now()+time.Millisecond); err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		drainEngine(t, donor)
		drainEngine(t, thief)
		dres, tres := donor.Finish(), thief.Finish()
		if dres.Requests+tres.Requests != len(reqs) || dres.Dropped != 0 || tres.Dropped != 0 {
			t.Fatalf("%s: donor %d + thief %d of %d requests (dropped %d/%d)",
				spec.name, dres.Requests, tres.Requests, len(reqs), dres.Dropped, tres.Dropped)
		}
		for _, o := range append(dres.Tasks, tres.Tasks...) {
			if o.Isolated != 20*time.Millisecond && o.Isolated != 40*time.Millisecond {
				t.Errorf("%s: outcome %+v has corrupted ground truth", spec.name, o)
			}
			if o.NTT < 1 {
				t.Errorf("%s: outcome %+v has NTT < 1", spec.name, o)
			}
		}
	}
}
