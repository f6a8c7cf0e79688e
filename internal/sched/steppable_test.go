package sched

import (
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/workload"
)

// TestEngineStepMatchesRun drives the steppable API by hand — injecting
// requests one at a time just before the engine reaches their arrival, the
// way a cluster dispatcher does — and demands a bit-identical Result to
// the all-upfront Run loop, for every scheduler.
func TestEngineStepMatchesRun(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		reqs, est := randomStream(seed)
		specs := []struct {
			name string
			mk   func() Scheduler
		}{
			{"FCFS", func() Scheduler { return NewFCFS() }},
			{"SJF", func() Scheduler { return NewSJF(est) }},
			{"PREMA", func() Scheduler { return NewPREMA(est) }},
			{"Planaria", func() Scheduler { return NewPlanaria(est) }},
			{"SDRM3", func() Scheduler { return NewSDRM3(est) }},
		}
		opts := Options{RecordTimeline: true, RecordTasks: true}
		for _, spec := range specs {
			want, err := Run(spec.mk(), reqs, opts)
			if err != nil {
				t.Fatalf("%s Run (seed %d): %v", spec.name, seed, err)
			}

			e := NewEngine(spec.mk(), opts)
			sorted := append([]*workload.Request(nil), reqs...)
			workload.SortByArrival(sorted)
			next := 0
			for next < len(sorted) || !e.Drained() {
				// Inject every request whose arrival the engine's next
				// event would reach or pass.
				for next < len(sorted) {
					ev, ok := e.NextEvent()
					if ok && ev < sorted[next].Arrival {
						break
					}
					if err := e.Inject(sorted[next], sorted[next].Arrival); err != nil {
						t.Fatal(err)
					}
					next++
				}
				if e.Drained() {
					continue
				}
				if _, err := e.Step(); err != nil {
					t.Fatalf("%s Step (seed %d): %v", spec.name, seed, err)
				}
			}
			got := e.Finish()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (seed %d): stepped engine diverges from Run:\n%+v\nvs\n%+v",
					spec.name, seed, got, want)
			}
		}
	}
}

// TestEngineStepReturnsClock verifies Step's return value is the time of
// the next scheduling decision and NextEvent agrees with it.
func TestEngineStepReturnsClock(t *testing.T) {
	a := synthReq(0, "a", 0, 10*time.Millisecond, 2, 100)
	b := synthReq(1, "b", time.Second, 10*time.Millisecond, 1, 100)
	e := NewEngine(NewFCFS(), Options{})
	for _, r := range []*workload.Request{a, b} {
		if err := e.Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	if ev, ok := e.NextEvent(); !ok || ev != 0 {
		t.Fatalf("NextEvent before first step = %v, %v", ev, ok)
	}
	now, err := e.Step()
	if err != nil {
		t.Fatal(err)
	}
	if now != 10*time.Millisecond {
		t.Errorf("clock after layer 1 = %v", now)
	}
	if e.Now() != now {
		t.Errorf("Now() = %v, Step returned %v", e.Now(), now)
	}
	if _, err := e.Step(); err != nil { // finishes a at 20ms
		t.Fatal(err)
	}
	// Engine idle until b arrives at 1s.
	if ev, ok := e.NextEvent(); !ok || ev != time.Second {
		t.Errorf("NextEvent over idle gap = %v, %v", ev, ok)
	}
	now, err = e.Step()
	if err != nil {
		t.Fatal(err)
	}
	if now != time.Second+10*time.Millisecond {
		t.Errorf("clock after idle jump + layer = %v", now)
	}
	if !e.Drained() {
		t.Error("engine not drained after all layers")
	}
	if _, ok := e.NextEvent(); ok {
		t.Error("drained engine still reports a next event")
	}
}

// TestEngineAccessors exercises the dispatcher-facing state accessors.
func TestEngineAccessors(t *testing.T) {
	a := synthReq(0, "a", 0, 10*time.Millisecond, 2, 100)
	b := synthReq(1, "b", 5*time.Millisecond, 10*time.Millisecond, 2, 100)
	e := NewEngine(NewFCFS(), Options{})
	if e.Outstanding() != 0 || e.Completed() != 0 || e.BusyTime() != 0 {
		t.Fatal("fresh engine not empty")
	}
	for _, r := range []*workload.Request{a, b} {
		if err := e.Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	if e.Outstanding() != 2 {
		t.Errorf("Outstanding = %d", e.Outstanding())
	}
	// Uniform unit load: backlog counts outstanding tasks.
	unit := func(*Task) time.Duration { return time.Millisecond }
	if got := e.EstimatedBacklog(unit); got != 2*time.Millisecond {
		t.Errorf("EstimatedBacklog = %v", got)
	}
	for !e.Drained() {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Outstanding() != 0 || e.Completed() != 2 {
		t.Errorf("after drain: outstanding %d, completed %d", e.Outstanding(), e.Completed())
	}
	if e.BusyTime() != 40*time.Millisecond {
		t.Errorf("BusyTime = %v", e.BusyTime())
	}
	if got := e.EstimatedBacklog(unit); got != 0 {
		t.Errorf("EstimatedBacklog after drain = %v", got)
	}
}

// TestEngineLifecycleErrors covers the seal-after-Finish contract and
// stepping a drained engine.
func TestEngineLifecycleErrors(t *testing.T) {
	e := NewEngine(NewFCFS(), Options{})
	if _, err := e.Step(); err == nil {
		t.Error("Step on a drained engine accepted")
	}
	r := synthReq(0, "a", 0, time.Millisecond, 1, 100)
	if err := e.Inject(r, r.Arrival); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	res := e.Finish()
	if res.Requests != 1 {
		t.Errorf("Requests = %d", res.Requests)
	}
	if err := e.Inject(r, r.Arrival); err == nil {
		t.Error("Inject after Finish accepted")
	}
	if _, err := e.Step(); err == nil {
		t.Error("Step after Finish accepted")
	}
	// Finish is idempotent.
	if again := e.Finish(); !reflect.DeepEqual(again, res) {
		t.Error("second Finish diverges")
	}
}

// TestEngineEarlyFinishReportsDropped: finalizing an undrained engine is
// visible — the outstanding requests surface in Result.Dropped instead of
// silently vanishing from the metrics.
func TestEngineEarlyFinishReportsDropped(t *testing.T) {
	a := synthReq(0, "a", 0, 10*time.Millisecond, 2, 100)
	b := synthReq(1, "b", 0, 10*time.Millisecond, 2, 100)
	e := NewEngine(NewFCFS(), Options{})
	for _, r := range []*workload.Request{a, b} {
		if err := e.Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	// Complete only a (two layers), leaving b outstanding.
	for i := 0; i < 2; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Finish()
	if res.Requests != 1 || res.Dropped != 1 {
		t.Errorf("Requests = %d, Dropped = %d; want 1, 1", res.Requests, res.Dropped)
	}
	// A drained run reports zero dropped.
	full, err := Run(NewFCFS(), []*workload.Request{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Dropped != 0 {
		t.Errorf("drained run Dropped = %d", full.Dropped)
	}
}

// TestEngineLateInjection: a request injected after its nominal arrival is
// delivered at the injection time, not retroactively.
func TestEngineLateInjection(t *testing.T) {
	a := synthReq(0, "a", 0, 10*time.Millisecond, 2, 100)
	late := synthReq(1, "b", 0, 10*time.Millisecond, 1, 100) // nominal arrival 0
	e := NewEngine(NewFCFS(), Options{})
	if err := e.Inject(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(); err != nil { // clock now 10ms
		t.Fatal(err)
	}
	// Injected at 15ms: visible from 15ms, so delivered at the 20ms
	// boundary even though its arrival field says 0.
	if err := e.Inject(late, 15*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for !e.Drained() {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Finish()
	// b runs 20..30ms; its turnaround still counts from the nominal
	// arrival (30ms), NTT 3.
	if res.Requests != 2 {
		t.Fatalf("Requests = %d", res.Requests)
	}
	wantANTT := (1.0 + 3.0) / 2
	if res.ANTT != wantANTT {
		t.Errorf("ANTT = %v, want %v", res.ANTT, wantANTT)
	}
}
