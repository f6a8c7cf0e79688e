package sched

import (
	"testing"
	"testing/quick"
	"time"

	"sparsedysta/internal/rng"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// randomStream builds a random but well-formed request stream plus a
// matching estimator, for property tests over the engine.
func randomStream(seed uint64) ([]*workload.Request, *Estimator) {
	r := rng.New(seed)
	nModels := 1 + r.Intn(3)
	store := trace.NewStore()
	keys := make([]trace.Key, nModels)
	profiles := make([][]trace.SampleTrace, nModels)
	for m := 0; m < nModels; m++ {
		keys[m] = trace.NewKey(string(rune('a'+m)), sparsity.Dense)
		layers := 2 + r.Intn(8)
		nProf := 3
		for p := 0; p < nProf; p++ {
			tr := trace.SampleTrace{
				Key:           keys[m],
				LayerLatency:  make([]time.Duration, layers),
				LayerSparsity: make([]float64, layers),
			}
			for l := 0; l < layers; l++ {
				tr.LayerLatency[l] = time.Duration(100+r.Intn(5000)) * time.Microsecond
				tr.LayerSparsity[l] = 0.1 + 0.8*r.Float64()
			}
			profiles[m] = append(profiles[m], tr)
		}
		store.Add(keys[m], profiles[m])
	}
	set, err := trace.NewStatsSet(store)
	if err != nil {
		panic(err)
	}

	n := 5 + r.Intn(40)
	reqs := make([]*workload.Request, n)
	var arrival time.Duration
	for i := range reqs {
		arrival += time.Duration(r.Intn(3000)) * time.Microsecond
		m := r.Intn(nModels)
		tr := &profiles[m][r.Intn(len(profiles[m]))]
		reqs[i] = &workload.Request{
			ID:      i,
			Trace:   tr,
			Arrival: arrival,
			SLO:     time.Duration(float64(tr.Total()) * (1 + 10*r.Float64())),
		}
	}
	return reqs, NewEstimator(set)
}

// engineInvariants checks the universal properties of any correct
// scheduler run.
func engineInvariants(t *testing.T, name string, res Result, reqs []*workload.Request) {
	t.Helper()
	if res.Requests != len(reqs) {
		t.Fatalf("%s: completed %d of %d requests", name, res.Requests, len(reqs))
	}
	if res.ANTT < 1 {
		t.Errorf("%s: ANTT %v below 1 (turnaround cannot beat isolated)", name, res.ANTT)
	}
	if res.ViolationRate < 0 || res.ViolationRate > 1 {
		t.Errorf("%s: violation rate %v outside [0,1]", name, res.ViolationRate)
	}
	var work time.Duration
	var lastArrival time.Duration
	for _, r := range reqs {
		work += r.Trace.Total()
		if r.Arrival > lastArrival {
			lastArrival = r.Arrival
		}
	}
	// Work conservation: the makespan is at least the total service time
	// minus the head start before the last arrival, and never less than
	// any single request's service time.
	if res.Makespan < 0 {
		t.Errorf("%s: negative makespan %v", name, res.Makespan)
	}
	if res.Makespan+reqs[0].Arrival < work-lastArrival {
		t.Errorf("%s: makespan %v too small for %v of work", name, res.Makespan, work)
	}
	if res.Throughput < 0 {
		t.Errorf("%s: negative throughput", name)
	}
}

// TestEngineInvariantsAcrossSchedulers drives every baseline over random
// request streams and asserts the universal invariants hold.
func TestEngineInvariantsAcrossSchedulers(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
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
		for _, spec := range specs {
			res, err := Run(spec.mk(), reqs, Options{})
			if err != nil {
				t.Logf("%s failed on seed %d: %v", spec.name, seed, err)
				return false
			}
			engineInvariants(t, spec.name, res, reqs)
		}
		return !t.Failed()
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDeterministic: identical inputs give identical results for
// every scheduler.
func TestEngineDeterministic(t *testing.T) {
	reqs, est := randomStream(77)
	for _, mk := range []func() Scheduler{
		func() Scheduler { return NewFCFS() },
		func() Scheduler { return NewSJF(est) },
		func() Scheduler { return NewPREMA(est) },
		func() Scheduler { return NewPlanaria(est) },
		func() Scheduler { return NewSDRM3(est) },
	} {
		a, err := Run(mk(), reqs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(mk(), reqs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.ANTT != b.ANTT || a.ViolationRate != b.ViolationRate ||
			a.Makespan != b.Makespan || a.Preemptions != b.Preemptions {
			t.Errorf("%s: nondeterministic results: %+v vs %+v", a.Scheduler, a, b)
		}
	}
}
