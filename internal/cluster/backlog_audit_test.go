package cluster

import (
	"fmt"
	"testing"
	"time"

	"sparsedysta/internal/sched"
)

// This file audits the incremental backlog invariant end to end: at every
// dispatch instant of a real cluster run — with migration, churn,
// autoscaling and streaming bounded capture all pulling tasks through
// Extract/Adopt/Crash/recycle — each engine's O(1) Backlog() sum must
// equal the O(n) EstimatedBacklog scan bit for bit. The sched package
// pins the per-mutation accounting; this file pins its composition under
// every subsystem that mutates queues from outside the engine.

// backlogAuditor returns a Config.debugBacklogAudit hook asserting the
// invariant, counting calls so tests can prove the audit actually ran.
func backlogAuditor(calls *int) func([]*sched.Engine, func(*sched.Task) time.Duration) error {
	return func(engines []*sched.Engine, load func(*sched.Task) time.Duration) error {
		*calls++
		if load == nil {
			return nil
		}
		for i, e := range engines {
			if !e.BacklogBound() {
				return fmt.Errorf("engine %d not bound to the run's estimator", i)
			}
			if got, want := e.Backlog(), e.EstimatedBacklog(load); got != want {
				return fmt.Errorf("engine %d: incremental backlog %v != scan %v", i, got, want)
			}
		}
		return nil
	}
}

// TestClusterBacklogInvariant runs the audited configurations. Each cell
// uses the shared load estimate both bare and in curve form, so the audit
// covers the per-event estimator path and the curve-indexed path alike.
func TestClusterBacklogInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		reqs, est, lut := randomStream(seed, 100)
		load := SparsityAwareLoad(lut, est)
		curve := SparsityAwareCurve(lut, est)
		plan, err := GenChurn(4, time.Second, 100*time.Millisecond, 20*time.Millisecond, seed)
		if err != nil {
			t.Fatal(err)
		}
		cells := []struct {
			name string
			cfg  Config
		}{
			{"migration", Config{
				Engines:           4,
				SignalInterval:    2 * time.Millisecond,
				Rebalance:         Steal{Load: load, Curve: curve},
				RebalanceInterval: 500 * time.Microsecond,
				MigrationCost:     200 * time.Microsecond,
			}},
			{"churn", Config{
				Engines:        4,
				SignalInterval: 2 * time.Millisecond,
				Churn:          &plan,
				RetryMax:       3,
			}},
			{"autoscale", Config{
				Engines:        4,
				SignalInterval: time.Millisecond,
				Autoscale: &Autoscaler{
					Min: 1, Max: 4,
					Up: 5 * time.Millisecond, Down: time.Millisecond,
					Cooldown: 5 * time.Millisecond,
					Load:     load, Curve: curve,
				},
			}},
		}
		for _, cell := range cells {
			for _, spec := range schedSpecs(est, lut) {
				cfg := cell.cfg
				cfg.Dispatch = NewLeastLoad("load", load).WithCurve(curve)
				calls := 0
				cfg.debugBacklogAudit = backlogAuditor(&calls)
				if _, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, cfg); err != nil {
					t.Fatalf("%s/%s (seed %d): %v", cell.name, spec.name, seed, err)
				}
				if calls < len(reqs) {
					t.Fatalf("%s/%s (seed %d): audit ran %d times for %d arrivals",
						cell.name, spec.name, seed, calls, len(reqs))
				}
			}
		}
	}
}

// TestStreamingBacklogInvariant audits the streaming + bounded-capture
// path: completed tasks are recycled through the run's task list
// mid-run, so the audit doubles as proof that reuse never corrupts the
// accounting of tasks still in flight.
func TestStreamingBacklogInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		reqs, est, lut := randomStream(seed, 150)
		load := SparsityAwareLoad(lut, est)
		curve := SparsityAwareCurve(lut, est)
		calls := 0
		cfg := Config{
			Engines:           4,
			Dispatch:          NewLeastLoad("load", load).WithCurve(curve),
			SignalInterval:    2 * time.Millisecond,
			Rebalance:         Steal{Load: load, Curve: curve},
			RebalanceInterval: 500 * time.Microsecond,
			MigrationCost:     200 * time.Microsecond,
			Sched:             sched.Options{BoundedCapture: true},
		}
		cfg.debugBacklogAudit = backlogAuditor(&calls)
		src := sched.NewSliceSource(sortedCopy(reqs))
		res, err := RunStream(func(int) sched.Scheduler { return sched.NewPREMA(est) }, src, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Requests != len(reqs) {
			t.Fatalf("seed %d: %d of %d requests completed", seed, res.Requests, len(reqs))
		}
		if calls < len(reqs) {
			t.Fatalf("seed %d: audit ran %d times for %d arrivals", seed, calls, len(reqs))
		}
	}
}
