package exp

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// churnTestOpts is the shared sweep cell for the churn exp-layer tests:
// heavy-but-not-saturated load on a 4-engine cluster with stale signals
// and moderate per-engine churn (each engine down ~150ms out of every
// ~2s).
func churnTestOpts() Options {
	o := tiny()
	o.Seeds = 2
	o.Requests = 300
	o.ProfileSamples = 40
	o.EvalSamples = 150
	return churnOpts(o, 2*time.Second, ChurnStaleInterval, "none")
}

// TestChurnGridDeterministicAcrossWorkers: a churned grid must be
// bit-identical for any -workers value — the fail/recover schedule is a
// pure function of the cell's seed index (churnSeed), never of worker
// scheduling or completion order.
func TestChurnGridDeterministicAcrossWorkers(t *testing.T) {
	opts := churnTestOpts()
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	dysta := dystaOnly()
	seq := opts
	seq.Workers = 1
	want, err := p.RunPoint(dysta, 120, 10, seq)
	if err != nil {
		t.Fatal(err)
	}
	par := opts
	par.Workers = 8
	got, err := p.RunPoint(dysta, 120, 10, par)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Errorf("churned grid diverges across worker counts:\nworkers=1: %s\nworkers=8: %s", a, b)
	}
	r := got["Dysta"]
	if r.Failovers == 0 && r.Retries == 0 {
		t.Error("churn never disrupted the run; the determinism check is vacuous")
	}
}

// TestChurnOffOptionsMatchPlainCluster: Options with Churn unset must
// produce the exact pre-churn cluster results — the exp-layer end of the
// bit-identity chain (the cluster-level end is pinned in
// internal/cluster's TestChurnOffBitIdentical).
func TestChurnOffOptionsMatchPlainCluster(t *testing.T) {
	opts := tiny()
	opts.Engines = 3
	opts.Dispatch = "load"
	opts.SignalInterval = 5 * time.Millisecond
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	dysta := dystaOnly()
	want, err := p.RunPoint(dysta, 90, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	// RetryMax without Churn is inert by design (the cluster only reads
	// it through the fault injector).
	o := opts
	o.RetryMax = 3
	got, err := p.RunPoint(dysta, 90, 10, o)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Error("RetryMax without Churn changed cluster results")
	}
}

// TestChurnNeedsAvailabilityModel: enabling churn without a positive
// MTBF/MTTR is a configuration error, not a silent no-churn run.
func TestChurnNeedsAvailabilityModel(t *testing.T) {
	opts := tiny()
	opts.Engines = 2
	opts.Churn = true // MTBF/MTTR left zero
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunPoint(dystaOnly(), 60, 10, opts); err == nil {
		t.Error("churn without MTBF/MTTR ran")
	}
}

// TestChurnStealRecoversGap is the experiment's headline claim as an
// assertion: at stale signals and moderate churn, work stealing wins
// back at least half of the SLO-violation gap that churn opens over the
// no-churn anchor. The mechanism: a recovered engine re-enters empty,
// and steal rounds immediately re-spread the outage backlog onto it,
// while without migration that backlog stays queued on the survivors.
func TestChurnStealRecoversGap(t *testing.T) {
	opts := churnTestOpts()
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	dysta := dystaOnly()
	run := func(o Options) float64 {
		t.Helper()
		rs, err := p.RunPoint(dysta, 120, 10, o)
		if err != nil {
			t.Fatal(err)
		}
		return rs["Dysta"].ViolationRate
	}
	base := opts
	base.Churn = false
	base.MTBF, base.MTTR = 0, 0
	anchor := run(base)  // no churn, no migration
	churned := run(opts) // churn, no migration
	steal := opts
	steal.Rebalance = "steal"
	steal.RebalanceInterval = churnRebalanceInterval
	steal.MigrationCost = churnMigrationCost
	repaired := run(steal) // churn + work stealing

	gap := churned - anchor
	if gap <= 0 {
		t.Fatalf("churn opened no violation gap (anchor %.4f, churned %.4f); the recovery claim is untestable here",
			anchor, churned)
	}
	if recovered := churned - repaired; recovered < gap/2 {
		t.Errorf("steal recovered %.4f of the %.4f churn gap (< half): anchor %.4f, churned %.4f, steal %.4f",
			recovered, gap, anchor, churned, repaired)
	}
}

// TestControlPlaneAllocatesNothingWarm: a crash re-arms its engine in
// place and a rebalance round plans into a buffer the Rebalancer reuses,
// so once a run's buffers have grown, more crashes and more rounds cost
// no allocations. One churned, work-stealing Dysta cluster runs the same
// stream under a plan of ~N crashes and under one of ~4N; the second may
// allocate only a small constant more (measured: 39). Building a new
// engine, Dysta and Aggregator per crash cost about 28 allocations each,
// over 600 for the 3N extra crashes here. Both runs recycle their Tasks
// through their own task lists, so the bound holds under -race too.
func TestControlPlaneAllocatesNothingWarm(t *testing.T) {
	p, err := NewPipeline(workloadAttNN(), tiny(), 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
		Requests: 2000, RatePerSec: 100, SLOMultiplier: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	span := reqs[len(reqs)-1].Arrival
	run := func(mtbf time.Duration) (allocs float64, crashes int) {
		plan, err := cluster.GenChurn(4, span, mtbf, 100*time.Millisecond, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range plan.Events {
			if ev.Kind == cluster.Fail {
				crashes++
			}
		}
		allocs = testing.AllocsPerRun(1, func() {
			d, err := NewDispatcher("load", p)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := NewRebalancer("steal", p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(p.LUT) }, reqs, cluster.Config{
				Engines: 4, Dispatch: d, Rebalance: rb, RebalanceInterval: time.Millisecond,
				MigrationCost: 200 * time.Microsecond, Churn: &plan, RetryMax: 4})
			if err != nil {
				t.Fatal(err)
			}
			if res.Migrations == 0 || res.Failovers+res.Retries == 0 {
				t.Fatalf("%d migrations, %d failovers, %d retries: the run exercises no control plane",
					res.Migrations, res.Failovers, res.Retries)
			}
		})
		return allocs, crashes
	}
	few, n := run(10 * time.Second)
	many, m := run(2 * time.Second)
	if m < 3*n {
		t.Fatalf("plans of %d and %d crashes: want the second about 4x the first", n, m)
	}
	const limit = 64.0
	if extra := many - few; extra > limit {
		t.Errorf("%d crashes allocate %.0f more than %d crashes (%.0f vs %.0f), want at most %.0f",
			m, extra, n, many, few, limit)
	}
}

// TestClusterAllocationsIgnoreGCAndProcs: a run's tasks come from its own
// list, which grows from a depot the garbage collector never empties, so
// how often a run allocates depends on nothing but the run. A churned,
// work-stealing Dysta cluster, warmed once, then allocates the same count
// at GOMAXPROCS 1 and 4, with and without a runtime.GC forced from its
// Observer every 250 completions. Tasks recycled through a sync.Pool,
// which each collection empties and which keeps one chain per processor,
// fail this: every forced GC costs a fresh batch of Tasks.
func TestClusterAllocationsIgnoreGCAndProcs(t *testing.T) {
	p, err := NewPipeline(workloadAttNN(), tiny(), 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
		Requests: 2000, RatePerSec: 100, SLOMultiplier: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cluster.GenChurn(4, reqs[len(reqs)-1].Arrival, 2*time.Second, 100*time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(gcEvery int) int64 {
		d, err := NewDispatcher("load", p)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := NewRebalancer("steal", p)
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		gc := func(sched.TaskOutcome) {
			if done++; gcEvery > 0 && done%gcEvery == 0 {
				runtime.GC()
			}
		}
		var res cluster.Result
		allocs := runAllocs(func() {
			res, err = cluster.Run(func(int) sched.Scheduler { return core.NewDefault(p.LUT) }, reqs, cluster.Config{
				Engines: 4, Dispatch: d, Rebalance: rb, RebalanceInterval: time.Millisecond,
				MigrationCost: 200 * time.Microsecond, Churn: &plan, RetryMax: 4,
				Sched: sched.Options{Observer: gc}})
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Migrations == 0 || res.Failovers+res.Retries == 0 {
			t.Fatalf("%d migrations, %d failovers, %d retries: the run exercises no control plane",
				res.Migrations, res.Failovers, res.Retries)
		}
		return allocs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run(0) // stocks the depot with the run's tasks
	want := run(0)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, gcEvery := range []int{0, 250} {
			if got := run(gcEvery); got != want {
				t.Errorf("GOMAXPROCS %d, GC every %d completions: %d allocations, want %d",
					procs, gcEvery, got, want)
			}
		}
	}
}

// runAllocs returns how many objects f allocates under a call to
// cluster.Run, counted by the memory profiler at a rate of one sample per
// allocation. It leaves out what the runtime allocates for its own
// bookkeeping, which MemStats.Mallocs counts too and which varies from
// run to run: a thread when GOMAXPROCS grows, a timer for its scavenger,
// and the caches a type assertion or type switch builds at random (one
// call in 1024 that misses the cache rebuilds it). Those allocations run
// on another goroutine, with no cluster.Run frame on their stacks, or
// under one of the runtime functions in runtimeOwn.
func runAllocs(f func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := profiledRunAllocs()
	f()
	return profiledRunAllocs() - before
}

// runtimeOwn holds the runtime functions whose allocations on the run's
// goroutine are the runtime's, not the run's: runtime.GC, called from the
// run's Observer, and the type assertion and type switch caches.
var runtimeOwn = map[string]bool{"runtime.GC": true, "runtime.typeAssert": true, "runtime.interfaceSwitch": true}

// profiledRunAllocs sums the profile's allocation counts under
// cluster.Run and outside runtimeOwn.
func profiledRunAllocs() int64 {
	// An allocation reaches the profile two collections after it is made.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var sum int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if runtimeOwn[fr.Function] {
				break
			}
			if fr.Function == "sparsedysta/internal/cluster.Run" {
				sum += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return sum
}
