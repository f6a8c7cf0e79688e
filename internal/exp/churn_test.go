package exp

import (
	"encoding/json"
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
// over 600 for the 3N extra crashes here. Under -race, sync.Pool drops a
// quarter of its Puts at random, so about a quarter of the Tasks are
// allocated afresh, with a spread of a few dozen between two runs.
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
	limit := 64.0
	if raceEnabled {
		limit += 0.1 * float64(len(reqs))
	}
	if extra := many - few; extra > limit {
		t.Errorf("%d crashes allocate %.0f more than %d crashes (%.0f vs %.0f), want at most %.0f",
			m, extra, n, many, few, limit)
	}
}
