package cluster

import (
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/rng"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/traffic"
	"sparsedysta/internal/workload"
)

// eager is the reference for lazily built candidate lists: it builds
// every view's list at the start of the round, before the policy plans.
// It forwards the policy's load estimate so the run resolves the same
// metrics pipeline as the bare policy.
type eager struct{ RebalancePolicy }

func (p eager) Plan(views []EngineView, now, cost time.Duration) []Move {
	for _, v := range views {
		v.Eligible()
	}
	return p.RebalancePolicy.Plan(views, now, cost)
}

func (p eager) LoadFunc() func(*sched.Task) time.Duration {
	return p.RebalancePolicy.(loadProvider).LoadFunc()
}

func (p eager) CurveFunc() func(*sched.Task) []time.Duration {
	return p.RebalancePolicy.(curveProvider).CurveFunc()
}

// mmppArrivals re-times a stream with bursty MMPP traffic: a 200 req/s
// mean with 8x bursts a fifth of the time.
func mmppArrivals(reqs []*workload.Request, seed uint64) {
	p := traffic.Bursty(200, 8, 0.2, 20*time.Millisecond)
	r := rng.New(seed)
	var at time.Duration
	for _, q := range reqs {
		at += p.Next(r, at)
		q.Arrival = at
	}
}

// TestLazyCandidatesMatchEager: building a round's candidate lists on
// first use must not change a single Result field against the eager
// build, for both policies, across plain, churning, autoscaled and
// bounded-capture runs, at a coarse interval and at one round per event.
func TestLazyCandidatesMatchEager(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		plan, err := GenChurn(4, time.Second, 100*time.Millisecond, 20*time.Millisecond, seed)
		if err != nil {
			t.Fatal(err)
		}
		cells := []struct {
			name   string
			retime func([]*workload.Request)
			cfg    func(load func(*sched.Task) time.Duration) Config
		}{
			{"plain", func(reqs []*workload.Request) {
				for _, r := range reqs {
					r.Arrival *= 3
				}
			}, func(func(*sched.Task) time.Duration) Config {
				return Config{Specs: []EngineSpec{{}, {}, {LatencyScale: 2}, {LatencyScale: 2}},
					Dispatch: NewJSQ(), SignalInterval: 5 * time.Millisecond}
			}},
			{"churn", nil, func(func(*sched.Task) time.Duration) Config {
				return Config{Engines: 4, Dispatch: NewJSQ(), SignalInterval: 2 * time.Millisecond,
					Churn: &plan, RetryMax: 3}
			}},
			{"autoscale-mmpp", func(reqs []*workload.Request) { mmppArrivals(reqs, seed) },
				func(load func(*sched.Task) time.Duration) Config {
					return Config{Engines: 4, Dispatch: NewRoundRobin(), SignalInterval: time.Millisecond,
						Autoscale: &Autoscaler{Min: 1, Max: 4, Up: 5 * time.Millisecond,
							Down: time.Millisecond, Cooldown: 5 * time.Millisecond, Load: load}}
				}},
			{"bounded", nil, func(func(*sched.Task) time.Duration) Config {
				return Config{Engines: 3, Dispatch: concentrate{},
					Sched: sched.Options{BoundedCapture: true, Exemplars: 8, ExemplarSeed: 1}}
			}},
		}
		for ci, cell := range cells {
			reqs, est, lut := randomStream(seed, 120)
			if cell.retime != nil {
				cell.retime(reqs)
			}
			load := SparsityAwareLoad(lut, est)
			spec := schedSpecs(est, lut)[(int(seed)+ci)%6]
			for _, pol := range []RebalancePolicy{
				Steal{Load: load, Curve: SparsityAwareCurve(lut, est)},
				Shed{Load: load},
			} {
				moved := 0
				for _, iv := range []time.Duration{time.Millisecond, time.Nanosecond} {
					run := func(p RebalancePolicy) Result {
						cfg := cell.cfg(load)
						cfg.Rebalance = p
						cfg.RebalanceInterval = iv
						cfg.MigrationCost = 200 * time.Microsecond
						res, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, cfg)
						if err != nil {
							t.Fatalf("%s/%s/%s/%v (seed %d): %v", cell.name, spec.name, p.Name(), iv, seed, err)
						}
						return res
					}
					lazy, ref := run(pol), run(eager{pol})
					if !reflect.DeepEqual(lazy, ref) {
						t.Fatalf("%s/%s/%s/%v (seed %d): lazy candidates diverge from the eager build",
							cell.name, spec.name, pol.Name(), iv, seed)
					}
					moved += lazy.Migrations
				}
				if moved == 0 {
					t.Errorf("%s/%s (seed %d): no migrations, the comparison is vacuous",
						cell.name, pol.Name(), seed)
				}
			}
		}
	}
}

// countingEngines builds n engines bound to a Load estimate that counts
// its calls, with every request of the stream injected round-robin into
// the first `loaded` engines; the counter is reset once setup is done.
func countingEngines(t *testing.T, n, loaded int) ([]*sched.Engine, func(*sched.Task) time.Duration, *int) {
	t.Helper()
	reqs, est, lut := randomStream(4, 40)
	base := SparsityAwareLoad(lut, est)
	calls := new(int)
	load := func(t *sched.Task) time.Duration {
		*calls++
		return base(t)
	}
	engines := make([]*sched.Engine, n)
	for i := range engines {
		engines[i] = sched.NewEngine(sched.NewSJF(est), sched.Options{BacklogEstimator: load})
	}
	for i, r := range reqs {
		if err := engines[i%loaded].Inject(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	*calls = 0
	return engines, load, calls
}

// TestEligibleBuiltOncePerRound pins the laziness itself: views() makes
// no Load call, Eligible builds one engine's list — one estimate per
// candidate — on its first call in a round and serves every later call,
// through any copy of the view, from the cache, and the next round
// rebuilds the list from live state.
func TestEligibleBuiltOncePerRound(t *testing.T) {
	engines, load, calls := countingEngines(t, 3, 2)
	rb := newRebalancer(Steal{Load: load}, engines, load, time.Millisecond, 0, 0)

	views := rb.views()
	if *calls != 0 {
		t.Fatalf("views() made %d Load calls, want 0", *calls)
	}
	n := engines[0].Outstanding()
	first := views[0].Eligible()
	if len(first) != n || *calls != n {
		t.Fatalf("first Eligible: %d candidates after %d Load calls, want %d and %d",
			len(first), *calls, n, n)
	}
	cp := views[0]
	if again := cp.Eligible(); &again[0] != &first[0] || len(again) != n || *calls != n {
		t.Fatalf("repeat Eligible rebuilt the list (%d Load calls)", *calls)
	}
	if got := views[2].Eligible(); len(got) != 0 || *calls != n {
		t.Fatalf("idle engine: %d candidates, %d Load calls", len(got), *calls)
	}

	// The next round sees the engine as it is now, not the cached list.
	gone := first[0].Task.ID
	if _, err := engines[0].Extract(gone); err != nil {
		t.Fatal(err)
	}
	*calls = 0
	views = rb.views()
	if *calls != 0 {
		t.Fatalf("second views() made %d Load calls", *calls)
	}
	second := views[0].Eligible()
	if len(second) != n-1 || *calls != n-1 {
		t.Fatalf("second round: %d candidates after %d Load calls, want %d", len(second), *calls, n-1)
	}
	for _, c := range second {
		if c.Task.ID == gone {
			t.Fatalf("second round still lists extracted request %d", gone)
		}
	}
}

// TestStealWritesBackConsumedList: two idle thieves raiding one victim in
// the same round must split its queue — the second sees only what the
// first left — and the cache must hold the shortened list afterwards.
func TestStealWritesBackConsumedList(t *testing.T) {
	engines, load, _ := countingEngines(t, 3, 1)
	rb := newRebalancer(Steal{Load: load}, engines, load, time.Millisecond, 0, 0)
	views := rb.views()
	n := len(views[0].Eligible())
	moves := Steal{}.Plan(views, 0, 0)
	seen := map[int]bool{}
	thieves := map[int]bool{}
	for _, m := range moves {
		if seen[m.ID] {
			t.Fatalf("request %d planned twice in one round: %+v", m.ID, moves)
		}
		seen[m.ID] = true
		thieves[m.To] = true
	}
	if !thieves[1] || !thieves[2] {
		t.Fatalf("want both idle engines to steal, got %+v", moves)
	}
	if left := views[0].Eligible(); len(left) != n-len(moves) {
		t.Fatalf("victim lists %d candidates after %d of %d moved", len(left), len(moves), n)
	}
}

// TestIdleRoundChangesNoEngine pins the premise of skipping the event
// heap resync: a round that reads every candidate list but moves nothing
// reports zero moves and leaves every engine as it was.
func TestIdleRoundChangesNoEngine(t *testing.T) {
	engines, load, _ := countingEngines(t, 3, 2)
	type state struct {
		next        time.Duration
		ok          bool
		outstanding int
		backlog     time.Duration
	}
	snap := func() []state {
		s := make([]state, len(engines))
		for i, e := range engines {
			s[i].next, s[i].ok = e.NextEvent()
			s[i].outstanding, s[i].backlog = e.Outstanding(), e.Backlog()
		}
		return s
	}
	before := snap()
	rb := newRebalancer(eager{NoRebalance{}}, engines, load, time.Millisecond, 0, 0)
	moved, err := rb.rebalance(0)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("round moved %d requests, want an idle round", moved)
	}
	if after := snap(); !reflect.DeepEqual(after, before) {
		t.Fatalf("idle round changed engine state:\n%+v\nvs\n%+v", after, before)
	}
}
