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

// oracleWith is the Oracle on cfg in place of NewOracle's configuration:
// the truth switch set directly, for the variants no exported constructor
// builds.
func oracleWith(cfg Config, lut *trace.StatsSet) *Dysta {
	d := New(cfg, lut)
	d.truth = true
	return d
}

// TestOracleHeapPickMatchesReference sweeps the Oracle's heap pick
// against the reference PickNext at the default configuration, at both
// Eta extremes (Eta 0 keys the feasible heap by the true remaining time
// alone, Eta 1 by the deadline alone) and without demotion (demoted tasks
// then tie feasible ones more often), on AttNN streams at 20-50 req/s and
// CNN streams at 2-5 req/s, 1500 requests each: up to ~1.7x one engine's
// capacity, so queues grow hundreds deep. No
// tolerance: Results must be DeepEqual, timeline and per-task outcomes
// included.
func TestOracleHeapPickMatchesReference(t *testing.T) {
	heap := sched.Options{RecordTimeline: true, RecordTasks: true}
	reference := heap
	reference.ReferencePick = true
	for _, sc := range []struct {
		name     string
		scenario workload.Scenario
		rates    []float64
	}{
		{"attnn", workload.MultiAttNN(), []float64{20, 30, 40, 50}},
		{"cnn", workload.MultiCNN(), []float64{2, 3, 4, 5}},
	} {
		prof, eval, err := workload.BuildStores(sc.scenario, 20, 60, 7)
		if err != nil {
			t.Fatal(err)
		}
		lut, err := trace.NewStatsSet(prof)
		if err != nil {
			t.Fatal(err)
		}
		oracle := func(mut func(*Config)) func() *Dysta {
			cfg := NewOracle(lut).Config()
			mut(&cfg)
			return func() *Dysta { return oracleWith(cfg, lut) }
		}
		specs := []struct {
			name string
			mk   func() *Dysta
		}{
			{"Oracle", oracle(func(*Config) {})},
			{"Oracle/eta-0", oracle(func(c *Config) { c.Eta = 0 })},
			{"Oracle/eta-1", oracle(func(c *Config) { c.Eta = 1 })},
			{"Oracle/demotion-0", oracle(func(c *Config) { c.DemotionMS = 0 })},
		}
		for i, rate := range sc.rates {
			reqs, err := workload.Generate(sc.scenario, eval, workload.GenConfig{
				Requests: 1500, RatePerSec: rate, SLOMultiplier: 10, Seed: uint64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				fast, err := sched.Run(spec.mk(), reqs, heap)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sched.Run(spec.mk(), reqs, reference)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fast, ref) {
					t.Errorf("%s %s at %v req/s: heap and reference schedules diverge (ANTT %v vs %v)",
						sc.name, spec.name, rate, fast.ANTT, ref.ANTT)
				}
			}
		}
	}
}
