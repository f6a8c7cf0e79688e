package cluster

import (
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/sched"
)

// TestPooledRunsByteIdentical is the pooled-object hygiene pin: the same
// seeded configuration run twice in one process must produce byte-
// identical results. The first run hands its tasks to the process-wide
// depot when it finishes, so the second run executes almost entirely on
// recycled Task structs — any state that leaks through the task list (a
// field Task.wrap forgot to rewrite, a scheduler retaining a completed
// task's pointer into its next decision) shows up as divergence here. The config deliberately stacks
// every recycling-hostile subsystem: migration (tasks change engines
// mid-flight), churn (crash/redistribute paths), and PREMA (the
// scheduler whose token state is keyed off task identity), under both
// capture modes, since every engine releases its completed tasks; full
// capture records Tasks and Timeline, whose entries must not alias a
// recycled task. CI runs this under -race, which covers the concurrent
// half of the hygiene claim.
func TestPooledRunsByteIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		reqs, est, lut := randomStream(seed, 120)
		load := SparsityAwareLoad(lut, est)
		curve := SparsityAwareCurve(lut, est)
		plan, err := GenChurn(4, time.Second, 100*time.Millisecond, 20*time.Millisecond, seed)
		if err != nil {
			t.Fatal(err)
		}
		for name, capture := range map[string]sched.Options{
			"bounded": {BoundedCapture: true, Exemplars: 8, ExemplarSeed: 1},
			"full":    {RecordTasks: true, RecordTimeline: true},
		} {
			run := func() Result {
				res, err := Run(func(int) sched.Scheduler { return sched.NewPREMA(est) }, reqs, Config{
					Engines:           4,
					Dispatch:          NewLeastLoad("load", load).WithCurve(curve),
					SignalInterval:    2 * time.Millisecond,
					Rebalance:         Steal{Load: load, Curve: curve},
					RebalanceInterval: time.Millisecond,
					MigrationCost:     200 * time.Microsecond,
					Churn:             &plan,
					RetryMax:          3,
					Sched:             capture,
				})
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				return res
			}
			first, second := run(), run()
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("%s seed %d: pooled rerun diverges from first run:\n%+v\nvs\n%+v",
					name, seed, first, second)
			}
		}
	}
}
