package cluster

import (
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// TestRebalanceNeutralKnobsBitIdentical: migration disabled — by a nil
// policy, the none policy, or a zero interval — must be bit-identical to
// the pre-migration cluster for every dispatcher and scheduler. This is
// the PR's primary equivalence anchor.
func TestRebalanceNeutralKnobsBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		reqs, est, lut := randomStream(seed, 60)
		load := SparsityAwareLoad(lut, est)
		for _, spec := range schedSpecs(est, lut) {
			for _, d := range dispatchers(est, lut) {
				base := Config{Engines: 3, Dispatch: d}
				want, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, base)
				if err != nil {
					t.Fatalf("%s/%s (seed %d): %v", spec.name, d.Name(), seed, err)
				}
				for name, cfg := range map[string]Config{
					"none-policy": {Engines: 3, Dispatch: d,
						Rebalance: NoRebalance{}, RebalanceInterval: 2 * time.Millisecond},
					"zero-interval": {Engines: 3, Dispatch: d,
						Rebalance: Steal{Load: load}, RebalanceInterval: 0,
						MigrationCost: time.Millisecond},
				} {
					got, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, cfg)
					if err != nil {
						t.Fatalf("%s/%s/%s (seed %d): %v", spec.name, d.Name(), name, seed, err)
					}
					if got.Rebalance != "none" {
						t.Fatalf("%s/%s/%s: effective policy %q, want none",
							spec.name, d.Name(), name, got.Rebalance)
					}
					if !reflect.DeepEqual(got.Result, want.Result) ||
						!reflect.DeepEqual(got.PerEngine, want.PerEngine) {
						t.Fatalf("%s/%s/%s (seed %d): neutral migration knobs diverge",
							spec.name, d.Name(), name, seed)
					}
				}
			}
		}
	}
}

// concentrate is a deliberately terrible dispatcher: everything lands on
// engine 0, the worst case work stealing exists to repair.
type concentrate struct{}

func (concentrate) Name() string { return "concentrate" }
func (concentrate) Pick([]EngineSignal, *workload.Request, time.Duration) int {
	return 0
}

// TestStealRescuesConcentratedLoad: with every request dispatched to one
// engine of a 4-engine cluster, work stealing must move work, spread
// completions across engines, and beat the no-migration run on violation
// rate; win/loss accounting must cover exactly the migrated requests.
func TestStealRescuesConcentratedLoad(t *testing.T) {
	reqs, est, lut := randomStream(9, 120)
	// Compress arrivals so the concentrated engine is badly backlogged.
	for _, r := range reqs {
		r.Arrival /= 4
	}
	load := SparsityAwareLoad(lut, est)
	newSched := func(int) sched.Scheduler { return sched.NewSJF(est) }

	stuck, err := Run(newSched, reqs, Config{Engines: 4, Dispatch: concentrate{}})
	if err != nil {
		t.Fatal(err)
	}
	steal, err := Run(newSched, reqs, Config{
		Engines: 4, Dispatch: concentrate{},
		Rebalance:         Steal{Load: load},
		RebalanceInterval: time.Millisecond,
		MigrationCost:     100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if steal.Rebalance != "steal" {
		t.Fatalf("effective policy %q", steal.Rebalance)
	}
	if steal.Migrations == 0 {
		t.Fatal("no migrations on a fully concentrated cluster")
	}
	if steal.MigrationWins+steal.MigrationLosses != steal.Migrations {
		t.Errorf("wins %d + losses %d != migrations %d",
			steal.MigrationWins, steal.MigrationLosses, steal.Migrations)
	}
	if steal.Requests != len(reqs) {
		t.Fatalf("%d of %d requests completed", steal.Requests, len(reqs))
	}
	busyEngines := 0
	for _, r := range steal.PerEngine {
		if r.Requests > 0 {
			busyEngines++
		}
	}
	if busyEngines < 2 {
		t.Errorf("stealing left work on %d engines", busyEngines)
	}
	if steal.ViolationRate >= stuck.ViolationRate {
		t.Errorf("stealing did not improve violations: %.3f vs %.3f",
			steal.ViolationRate, stuck.ViolationRate)
	}
	if steal.Makespan >= stuck.Makespan {
		t.Errorf("stealing did not shorten the makespan: %v vs %v",
			steal.Makespan, stuck.Makespan)
	}
}

// TestShedRescuesConcentratedLoad: the push policy must also move work
// off a doomed backlog and not lose any requests doing so.
func TestShedRescuesConcentratedLoad(t *testing.T) {
	reqs, est, lut := randomStream(9, 120)
	for _, r := range reqs {
		r.Arrival /= 4
	}
	load := SparsityAwareLoad(lut, est)
	newSched := func(int) sched.Scheduler { return sched.NewSJF(est) }
	shed, err := Run(newSched, reqs, Config{
		Engines: 4, Dispatch: concentrate{},
		Rebalance:         Shed{Load: load},
		RebalanceInterval: time.Millisecond,
		MigrationCost:     100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if shed.Rebalance != "shed" || shed.Migrations == 0 {
		t.Fatalf("policy %q migrated %d", shed.Rebalance, shed.Migrations)
	}
	if shed.Requests != len(reqs) {
		t.Fatalf("%d of %d requests completed", shed.Requests, len(reqs))
	}
}

// TestMigrationDeterministic: migrating runs are pure functions of their
// inputs — two identical invocations agree exactly, for both policies.
func TestMigrationDeterministic(t *testing.T) {
	reqs, est, lut := randomStream(21, 100)
	for _, r := range reqs {
		r.Arrival /= 3
	}
	load := SparsityAwareLoad(lut, est)
	for _, mk := range []func() RebalancePolicy{
		func() RebalancePolicy { return Steal{Load: load} },
		func() RebalancePolicy { return Shed{Load: load} },
	} {
		run := func() Result {
			res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs, Config{
				Engines: 3, Dispatch: NewJSQ(),
				Rebalance:         mk(),
				RebalanceInterval: 2 * time.Millisecond,
				MigrationCost:     200 * time.Microsecond,
				Sched:             sched.Options{RecordTasks: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: nondeterministic migrating runs", mk().Name())
		}
	}
}

// TestStealNoPointlessSwaps: two near-idle engines holding one queued
// task each must not swap them — stealing needs a victim with work
// actually waiting and a longer backlog than the thief, or both requests
// would pay the migration cost for zero gain.
func TestStealNoPointlessSwaps(t *testing.T) {
	reqs, est, lut := randomStream(9, 40)
	load := SparsityAwareLoad(lut, est)
	// Spread arrivals far apart: each engine holds at most one request
	// at a time, so every rebalance instant sees only near-idle engines.
	for i, r := range reqs {
		r.Arrival = time.Duration(i) * 50 * time.Millisecond
	}
	res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs, Config{
		Engines: 2, Dispatch: NewRoundRobin(),
		Rebalance:         Steal{Load: load},
		RebalanceInterval: time.Millisecond,
		MigrationCost:     10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Errorf("%d pointless migrations on an uncontended cluster", res.Migrations)
	}
}

// TestInertPolicyDoesNotFeedSignals: with RebalanceInterval 0 an inert
// policy's load estimate must not leak into the SignalBoard — Backlog-
// driven admission would otherwise behave differently from a run without
// a migration subsystem, breaking the documented bit-identity contract.
func TestInertPolicyDoesNotFeedSignals(t *testing.T) {
	reqs, est, lut := randomStream(9, 120)
	for _, r := range reqs {
		r.Arrival /= 4
	}
	load := SparsityAwareLoad(lut, est)
	// Round-robin + SLOShed with a nil Load: without any provider the
	// board leaves Backlog zero and the shed never predicts a miss.
	run := func(cfg Config) Result {
		cfg.Engines = 2
		cfg.Dispatch = NewRoundRobin()
		cfg.Admission = SLOShed{Iso: RequestIsolated(lut, est)}
		res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(Config{})
	got := run(Config{Rebalance: Steal{Load: load}, RebalanceInterval: 0})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("inert steal policy changed the run: rejected %d vs %d",
			got.Rejected, want.Rejected)
	}
}

// TestMigrationBudgetCaps: the total-migration budget is a hard cap.
func TestMigrationBudgetCaps(t *testing.T) {
	reqs, est, lut := randomStream(9, 120)
	for _, r := range reqs {
		r.Arrival /= 4
	}
	load := SparsityAwareLoad(lut, est)
	res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs, Config{
		Engines: 4, Dispatch: concentrate{},
		Rebalance:         Steal{Load: load},
		RebalanceInterval: time.Millisecond,
		MigrationBudget:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations > 3 {
		t.Errorf("budget 3 exceeded: %d migrations", res.Migrations)
	}
	if res.Migrations == 0 {
		t.Error("budget 3 prevented all migrations")
	}
	if res.Requests != len(reqs) {
		t.Errorf("%d of %d requests completed", res.Requests, len(reqs))
	}
}

// TestMigrationOncePerRequest: no request migrates twice, so migrations
// can never exceed the stream length however aggressive the policy and
// however tight the interval (the thrash-impossibility invariant).
func TestMigrationOncePerRequest(t *testing.T) {
	reqs, est, lut := randomStream(5, 80)
	for _, r := range reqs {
		r.Arrival /= 5
	}
	load := SparsityAwareLoad(lut, est)
	res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs, Config{
		Engines: 4, Dispatch: concentrate{},
		Rebalance:         Steal{Load: load},
		RebalanceInterval: time.Nanosecond, // every instant is a rebalance instant
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations > len(reqs) {
		t.Errorf("%d migrations for %d requests", res.Migrations, len(reqs))
	}
	if res.Requests != len(reqs) {
		t.Errorf("%d of %d requests completed", res.Requests, len(reqs))
	}
}

// offload moves the lowest-ID eligible request off engine 0 onto the
// first idle in-service engine, one move per round, and records what it
// sees: how often it moved each ID, and any ID offered as eligible again
// after it moved.
type offload struct {
	moves   map[int]int
	reoffer []int
}

func (*offload) Name() string { return "offload" }

func (p *offload) Plan(views []EngineView, _, _ time.Duration) []Move {
	for i := range views {
		for _, c := range views[i].Eligible() {
			if p.moves[c.Task.ID] > 0 {
				p.reoffer = append(p.reoffer, c.Task.ID)
			}
		}
	}
	rem := views[0].Eligible()
	for thief := 1; thief < len(views); thief++ {
		if views[0].Down || views[thief].Down || views[thief].Outstanding > 0 || len(rem) == 0 {
			continue
		}
		p.moves[rem[0].Task.ID]++
		return []Move{{ID: rem[0].Task.ID, From: 0, To: thief}}
	}
	return nil
}

// TestMigratedFlagSurvivesFailover: a request migrates, starts on its new
// engine, and that engine crashes under it, so the request restarts and
// fails over to its first engine's queue, never-started again. The
// once-per-request rule rides on the task (Task.Migrated survives
// Restart), so the request must never be offered as eligible again and
// must count as one migration.
func TestMigratedFlagSurvivesFailover(t *testing.T) {
	// Everything lands on engine 0 (4 layers of 500µs each, one arrival
	// every 100µs). The round at 1ms moves request 1 to engine 1, which
	// dies at 2ms with request 1 two layers in. The crash fires first at
	// that instant, so request 1 is back in engine 0's queue, never
	// started, when the 2ms round offers engine 0's queue to the idle
	// engine 2.
	reqs := uniformStream(30, 100*time.Microsecond, 500*time.Microsecond, 4, time.Second)
	policy := &offload{moves: map[int]int{}}
	res, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs, Config{
		Engines: 3, Dispatch: concentrate{},
		Rebalance:         policy,
		RebalanceInterval: time.Millisecond,
		Churn: &ChurnPlan{Events: []ChurnEvent{
			{At: 2 * time.Millisecond, Engine: 1, Kind: Fail},
		}},
		Sched: sched.Options{RecordTasks: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	accounted(t, "offload", res, len(reqs))
	if policy.moves[1] != 1 || res.Retries != 1 {
		t.Fatalf("request 1 moved %d times with %d retries, want one move and one retry",
			policy.moves[1], res.Retries)
	}
	if len(policy.reoffer) > 0 {
		t.Errorf("migrated requests offered as eligible again: %v", policy.reoffer)
	}
	if res.Migrations != len(policy.moves) {
		t.Errorf("%d migrations for %d distinct moved requests", res.Migrations, len(policy.moves))
	}
	if n := migratedTasks(t, "offload", res); n != res.Migrations {
		t.Errorf("%d completed tasks flagged Migrated, want all %d migrations", n, res.Migrations)
	}
	if res.Requests != len(reqs) {
		t.Errorf("%d of %d requests completed", res.Requests, len(reqs))
	}
}
