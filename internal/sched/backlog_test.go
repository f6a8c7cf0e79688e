package sched

import (
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/workload"
)

// This file pins the incremental backlog accounting: an engine bound to a
// BacklogEstimator maintains Backlog() as a running integer sum that must
// equal the O(n) EstimatedBacklog scan — bit for bit, at every instant,
// across every queue mutation (Inject, delivery, layer completion,
// Extract, Adopt, Crash). The scan stays in the codebase precisely to be
// the reference these tests compare against.

// backlogLoad returns the estimator-backed load and its curve form for
// the synthetic fixtures (the sched-package analogue of the cluster
// package's BlindLoad/BlindCurve pair).
func backlogLoad(est *Estimator) (func(*Task) time.Duration, func(*Task) []time.Duration) {
	load := func(t *Task) time.Duration { return est.Remaining(t) }
	curve := func(t *Task) []time.Duration {
		if st := est.ModelStats(t.Key.Model()); st != nil {
			return st.RemainingCurve()
		}
		return nil
	}
	return load, curve
}

// checkBacklog asserts the incremental sum equals the reference scan.
func checkBacklog(t *testing.T, label string, e *Engine, load func(*Task) time.Duration) {
	t.Helper()
	if !e.BacklogBound() {
		t.Fatalf("%s: engine not backlog-bound", label)
	}
	if got, want := e.Backlog(), e.EstimatedBacklog(load); got != want {
		t.Fatalf("%s: incremental backlog %v != scan %v", label, got, want)
	}
}

// TestBacklogMatchesScanThroughLifecycle drives one engine through every
// queue mutation — injection, visibility delivery, per-layer execution,
// completion — checking the invariant after each step, with and without
// the curve fast path (the two paths must agree exactly: the curve is the
// same suffix table AvgRemaining indexes).
func TestBacklogMatchesScanThroughLifecycle(t *testing.T) {
	reqs := []*workload.Request{
		synthReq(0, "a", 0, 10*time.Millisecond, 4, 100),
		synthReq(1, "b", 5*time.Millisecond, 7*time.Millisecond, 3, 100),
		synthReq(2, "a", 12*time.Millisecond, 10*time.Millisecond, 4, 100),
		synthReq(3, "b", 30*time.Millisecond, 7*time.Millisecond, 3, 100),
	}
	est := synthEstimator(reqs...)
	load, curve := backlogLoad(est)
	for _, mode := range []struct {
		name  string
		curve func(*Task) []time.Duration
	}{{"scalar", nil}, {"curve", curve}} {
		e := NewEngine(NewSJF(est), Options{
			BacklogEstimator: load, BacklogCurve: mode.curve})
		checkBacklog(t, mode.name+"/empty", e, load)
		for _, r := range reqs {
			if err := e.Inject(r, 0); err != nil {
				t.Fatal(err)
			}
			checkBacklog(t, mode.name+"/inject", e, load)
		}
		for !e.Drained() {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
			checkBacklog(t, mode.name+"/step", e, load)
		}
		if e.Backlog() != 0 {
			t.Fatalf("%s: drained engine reports backlog %v", mode.name, e.Backlog())
		}
	}
}

// TestBacklogMatchesScanAcrossMigration pins the invariant across the
// extraction contract: Extract removes the task's contribution from the
// donor, Adopt adds it to the adopter (visibility delay included — an
// adopted-but-undelivered request is backlog, see
// TestPendingBacklogCountsVisibilityDelayed), and Crash zeroes the sum.
func TestBacklogMatchesScanAcrossMigration(t *testing.T) {
	reqs := []*workload.Request{
		synthReq(0, "a", 0, 10*time.Millisecond, 4, 100),
		synthReq(1, "b", 0, 7*time.Millisecond, 3, 100),
		synthReq(2, "a", 1*time.Millisecond, 10*time.Millisecond, 4, 100),
	}
	est := synthEstimator(reqs...)
	load, curve := backlogLoad(est)
	donor := NewEngine(NewFCFS(), Options{BacklogEstimator: load, BacklogCurve: curve})
	adopter := NewEngine(NewFCFS(), Options{BacklogEstimator: load})
	for _, r := range reqs {
		if err := donor.Inject(r, 0); err != nil {
			t.Fatal(err)
		}
	}
	tk, err := donor.Extract(2)
	if err != nil {
		t.Fatal(err)
	}
	checkBacklog(t, "donor/extract", donor, load)
	if adopter.Backlog() != 0 {
		t.Fatalf("fresh adopter backlog %v", adopter.Backlog())
	}
	if err := adopter.Adopt(tk, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	checkBacklog(t, "adopter/adopt", adopter, load)
	if adopter.Backlog() == 0 {
		t.Fatal("adopted request contributes no backlog")
	}

	queued, started, err := donor.Crash(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(queued)+len(started) != 2 {
		t.Fatalf("crash returned %d+%d tasks, want 2", len(queued), len(started))
	}
	checkBacklog(t, "donor/crash", donor, load)
	if donor.Backlog() != 0 {
		t.Fatalf("crashed engine reports backlog %v", donor.Backlog())
	}
	drainEngine(t, adopter)
	checkBacklog(t, "adopter/drained", adopter, load)
}

// TestPendingBacklogCountsVisibilityDelayed pins the EstimatedBacklog
// semantics decision: a visibility-delayed pending request (injected
// ahead of its arrival, or adopted with a migration cost) counts exactly
// like a ready one — it is committed future work for this engine, and
// ignoring it would make an adopting engine look idle to every signal
// consumer at precisely the instant it was chosen to absorb load. The
// incremental sum inherits the same semantics (accountAdd at
// Inject/Adopt, not at delivery).
func TestPendingBacklogCountsVisibilityDelayed(t *testing.T) {
	future := synthReq(0, "a", 50*time.Millisecond, 10*time.Millisecond, 4, 100)
	est := synthEstimator(future)
	load, _ := backlogLoad(est)
	e := NewEngine(NewFCFS(), Options{BacklogEstimator: load})
	// Injected at t=0, not deliverable before t=50ms: pending, invisible
	// to the scheduler — but already this engine's committed work.
	if err := e.Inject(future, 0); err != nil {
		t.Fatal(err)
	}
	want := load(mustTask(t, e, 0))
	if got := e.EstimatedBacklog(load); got != want {
		t.Fatalf("pending request contributes %v to the scan, want full estimate %v", got, want)
	}
	if got := e.Backlog(); got != want {
		t.Fatalf("pending request contributes %v to the incremental sum, want %v", got, want)
	}
}

// mustTask fetches an engine-held task by ID via the migration surface
// (Migratable lists pending and never-started ready tasks).
func mustTask(t *testing.T, e *Engine, id int) *Task {
	t.Helper()
	for _, tk := range e.Migratable() {
		if tk.ID == id {
			return tk
		}
	}
	t.Fatalf("task %d not migratable", id)
	return nil
}

// TestBacklogCurveMismatchRejected: the curve is an optimization of the
// scalar estimate and the engine cross-checks the pair at every
// enrollment, so a curve that disagrees with its estimator is an
// immediate injection error — never a silently diverging signal.
func TestBacklogCurveMismatchRejected(t *testing.T) {
	r := synthReq(0, "a", 0, 10*time.Millisecond, 4, 100)
	est := synthEstimator(r)
	load, _ := backlogLoad(est)
	lying := func(*Task) []time.Duration {
		c := make([]time.Duration, 5)
		for i := range c {
			c[i] = time.Second // not what load says
		}
		return c
	}
	e := NewEngine(NewFCFS(), Options{BacklogEstimator: load, BacklogCurve: lying})
	err := e.Inject(r, 0)
	if err == nil {
		t.Fatal("injection with a disagreeing BacklogCurve succeeded")
	}
	if !strings.Contains(err.Error(), "BacklogCurve disagrees") {
		t.Fatalf("unexpected error: %v", err)
	}
}
