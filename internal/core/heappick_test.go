package core

import (
	"reflect"
	"testing"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// TestScalableDystaMatchesReference proves the heap-backed pick returns
// bit-identical schedules to the reference PickNext for both Dysta
// configurations: with the dynamic level disabled the heap key IS the
// static score, and with it enabled the pruned DFS re-scores every
// unpruned candidate with the exact cached formula under lower bounds
// that hold in float arithmetic (see the field doc on Dysta.feasible),
// so no tolerance is needed — Results must be DeepEqual, timeline and
// per-task outcomes included. The deep-queue sweep in internal/exp runs
// the same check where demotion dominates.
func TestScalableDystaMatchesReference(t *testing.T) {
	sc := workload.MultiAttNN()
	prof, eval, err := workload.BuildStores(sc, 30, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	lut, err := trace.NewStatsSet(prof)
	if err != nil {
		t.Fatal(err)
	}
	heap := sched.Options{RecordTimeline: true, RecordTasks: true}
	reference := sched.Options{RecordTimeline: true, RecordTasks: true, ReferencePick: true}
	for seed := uint64(1); seed <= 8; seed++ {
		reqs, err := workload.Generate(sc, eval, workload.GenConfig{
			Requests: 250, RatePerSec: 40, SLOMultiplier: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, mk := range []func() *Dysta{
			func() *Dysta { return NewDefault(lut) },
			func() *Dysta { return NewWithoutSparse(lut) },
		} {
			name := mk().Name()
			fast, err := sched.Run(mk(), reqs, heap)
			if err != nil {
				t.Fatalf("%s heap pick (seed %d): %v", name, seed, err)
			}
			ref, err := sched.Run(mk(), reqs, reference)
			if err != nil {
				t.Fatalf("%s reference (seed %d): %v", name, seed, err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("%s (seed %d): heap and reference schedules diverge:\n%+v\nvs\n%+v", name, seed, fast, ref)
			}
		}
	}
}
