package sched

import "testing"

// TestScalableMatchesReference proves PREMA's heap pick produces
// bit-identical schedules to the reference PickNext at the threshold
// regimes the default misses: low thresholds, where most waiting tasks
// cross within a pick or two, and 0, where every task is a candidate from
// arrival on. (TestIncrementalMatchesReference covers the default
// threshold and SDRM3.) No tolerance: Results must be DeepEqual, timeline
// and per-task outcomes included.
func TestScalableMatchesReference(t *testing.T) {
	heap := Options{RecordTimeline: true, RecordTasks: true}
	reference := heap
	reference.ReferencePick = true
	for seed := uint64(1); seed <= 40; seed++ {
		reqs, est := randomStream(seed)
		for _, th := range []float64{8, 1, 0} {
			mk := func() Scheduler { p := NewPREMA(est); p.Threshold = th; return p }
			fast, err := Run(mk(), reqs, heap)
			if err != nil {
				t.Fatalf("PREMA threshold %g heap pick (seed %d): %v", th, seed, err)
			}
			ref, err := Run(mk(), reqs, reference)
			if err != nil {
				t.Fatalf("PREMA threshold %g reference (seed %d): %v", th, seed, err)
			}
			sameResults(t, "PREMA", fast, ref)
		}
	}
}

// TestScalablePREMAWithinTolerance pins PREMA at its default threshold,
// with the deprecated ScalablePick option set, against the reference
// PickNext. The tolerance is zero: token accrual uses the reference's
// float ops, so Results must be DeepEqual, timeline and per-task outcomes
// included.
func TestScalablePREMAWithinTolerance(t *testing.T) {
	scalable := Options{RecordTimeline: true, RecordTasks: true, ScalablePick: true}
	reference := Options{RecordTimeline: true, RecordTasks: true, ReferencePick: true}
	for seed := uint64(1); seed <= 40; seed++ {
		reqs, est := randomStream(seed)
		fast, err := Run(NewPREMA(est), reqs, scalable)
		if err != nil {
			t.Fatalf("PREMA scalable (seed %d): %v", seed, err)
		}
		ref, err := Run(NewPREMA(est), reqs, reference)
		if err != nil {
			t.Fatalf("PREMA reference (seed %d): %v", seed, err)
		}
		sameResults(t, "PREMA", fast, ref)
	}
}

// TestScalableFallsBackWithoutImplementation checks that the deprecated
// ScalablePick option is ignored: setting it changes no scheduler's
// schedule.
func TestScalableFallsBackWithoutImplementation(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		reqs, est := randomStream(seed)
		opts := Options{RecordTimeline: true, RecordTasks: true}
		withFlag := opts
		withFlag.ScalablePick = true
		for _, mk := range []func() Scheduler{
			func() Scheduler { return NewFCFS() },
			func() Scheduler { return NewPREMA(est) },
			func() Scheduler { return NewSDRM3(est) },
		} {
			plain, err := Run(mk(), reqs, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			flagged, err := Run(mk(), reqs, withFlag)
			if err != nil {
				t.Fatalf("seed %d with ScalablePick: %v", seed, err)
			}
			sameResults(t, plain.Scheduler, plain, flagged)
		}
	}
}
