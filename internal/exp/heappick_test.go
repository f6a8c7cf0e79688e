package exp

import (
	"fmt"
	"reflect"
	"testing"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// heapPickSpecs are the schedulers whose production pick is a heap, in
// every configuration that changes which bound or partition the heap
// relies on: Dysta with and without the dynamic level, without demotion
// (demoted tasks then tie feasible ones more often) and at both Eta
// extremes (Eta 0 keys the feasible heap by remain alone, Eta 1 by the
// deadline alone), SDRM3, PREMA across threshold regimes down to 0,
// where every task is a candidate from arrival on, Planaria, and Oracle at
// the default Eta, at both Eta extremes and without demotion.
func heapPickSpecs() []SchedSpec {
	dysta := func(name string, mut func(*core.Config)) SchedSpec {
		cfg := core.DefaultConfig()
		mut(&cfg)
		return SchedSpec{Name: name, New: func(p *Pipeline) sched.Scheduler { return core.New(cfg, p.LUT) }}
	}
	specs := []SchedSpec{
		dysta("Dysta", func(*core.Config) {}),
		dysta("Dysta-w/o-sparse", func(c *core.Config) { c.DynamicEnabled = false }),
		dysta("Dysta/demotion-0", func(c *core.Config) { c.DemotionMS = 0 }),
		dysta("Dysta/eta-0", func(c *core.Config) { c.Eta = 0 }),
		dysta("Dysta/eta-1", func(c *core.Config) { c.Eta = 1 }),
		{Name: "SDRM3", New: func(p *Pipeline) sched.Scheduler { return sched.NewSDRM3(p.Est) }},
		{Name: "Planaria", New: func(p *Pipeline) sched.Scheduler { return sched.NewPlanaria(p.Est) }},
	}
	oracle := func(name string, eta, demotion float64) SchedSpec {
		return SchedSpec{Name: name, New: func(*Pipeline) sched.Scheduler {
			o := sched.NewOracle(eta)
			o.DemotionMS = demotion
			return o
		}}
	}
	eta := core.DefaultConfig().Eta
	specs = append(specs,
		oracle("Oracle", eta, 1000),
		oracle("Oracle/eta-0", 0, 1000),
		oracle("Oracle/eta-1", 1, 1000),
		oracle("Oracle/demotion-0", eta, 0))
	for _, th := range []float64{64, 8, 1, 0} {
		specs = append(specs, SchedSpec{Name: fmt.Sprintf("PREMA/threshold-%g", th),
			New: func(p *Pipeline) sched.Scheduler {
				s := sched.NewPREMA(p.Est)
				s.Threshold = th
				return s
			}})
	}
	return specs
}

// TestHeapPicksExactDeepQueue sweeps the heap picks against the reference
// PickNext at queue depths the paper-rate tests never reach: 1500
// requests per stream, AttNN at 20-50 req/s and CNN at 2-5 req/s (up to
// ~1.7x one engine's capacity, so queues grow hundreds deep and most
// waiting Dysta tasks end up demoted). Each seed draws one stream per
// scenario at its own rate. No tolerance: Results must be DeepEqual,
// timeline and per-task outcomes included. Under -race only the last,
// deepest seed runs.
func TestHeapPicksExactDeepQueue(t *testing.T) {
	const seeds = 12
	first := uint64(1)
	if raceEnabled {
		first = seeds
	}
	heap := sched.Options{RecordTimeline: true, RecordTasks: true}
	reference := heap
	reference.ReferencePick = true
	for _, sc := range []struct {
		name     string
		scenario func() workload.Scenario
		lo, hi   float64
	}{
		{"attnn", workload.MultiAttNN, 20, 50},
		{"cnn", workload.MultiCNN, 2, 5},
	} {
		p, err := NewPipeline(sc.scenario(), tiny(), 7)
		if err != nil {
			t.Fatal(err)
		}
		for seed := first; seed <= seeds; seed++ {
			rate := sc.lo + (sc.hi-sc.lo)*float64(seed-1)/(seeds-1)
			reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
				Requests: 1500, RatePerSec: rate, SLOMultiplier: 10, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range heapPickSpecs() {
				fast, err := sched.Run(spec.New(p), reqs, heap)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sched.Run(spec.New(p), reqs, reference)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fast, ref) {
					t.Errorf("%s %s seed %d (%.1f req/s): heap and reference schedules diverge (ANTT %v vs %v)",
						sc.name, spec.Name, seed, rate, fast.ANTT, ref.ANTT)
				}
			}
		}
	}
}

// TestHeapPicksAllocateNoMoreThanScan pins the heap picks' allocations on
// a warm engine: one scheduler instance reused across runs (so its heaps
// have grown to the run's depth) over a stream queueing hundreds deep.
// What remains per request is the engine's Task under full capture plus
// at most one attachment, and amortized capture slices. The scan picks
// these replace measured 3.046 (Dysta: state plus a separate predictor),
// 2.046 (PREMA), 1.046 (SDRM3) and 1.047 (Planaria, Oracle) allocations
// per request on this run; the heap picks must not exceed them, and Dysta
// now embeds its predictor.
func TestHeapPicksAllocateNoMoreThanScan(t *testing.T) {
	p, err := NewPipeline(workloadAttNN(), tiny(), 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
		Requests: 1500, RatePerSec: 40, SLOMultiplier: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ceiling := map[string]float64{"Dysta": 2.05, "PREMA": 2.05, "SDRM3": 1.05, "Planaria": 1.05, "Oracle": 1.05}
	for _, spec := range WithOracle(StandardScheds()) {
		want, ok := ceiling[spec.Name]
		if !ok {
			continue
		}
		s := spec.New(p)
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := sched.Run(s, reqs, sched.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if got := allocs / float64(len(reqs)); got > want {
			t.Errorf("%s: %.4f allocs per request on a warm engine, want <= %.2f", spec.Name, got, want)
		}
	}
}
