package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/rng"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// uniformStream builds a fully deterministic request stream: n requests,
// one every gap, each a `layers`-layer trace of `layer` per layer, all
// with the given relative SLO. Crafted churn tests need exact control of
// when work is queued, running and finished around an injected failure.
func uniformStream(n int, gap, layer time.Duration, layers int, slo time.Duration) []*workload.Request {
	key := trace.NewKey("m", sparsity.Dense)
	reqs := make([]*workload.Request, n)
	for i := range reqs {
		tr := trace.SampleTrace{
			LayerLatency:  make([]time.Duration, layers),
			LayerSparsity: make([]float64, layers),
		}
		for l := 0; l < layers; l++ {
			tr.LayerLatency[l] = layer
			tr.LayerSparsity[l] = 0.5
		}
		reqs[i] = &workload.Request{
			ID: i, Key: key, Trace: &tr,
			Arrival: time.Duration(i) * gap,
			SLO:     slo,
		}
	}
	return reqs
}

// accounted asserts the no-silent-drop contract on a churn result: every
// offered request landed in exactly one outcome class.
func accounted(t *testing.T, label string, res Result, offered int) {
	t.Helper()
	if res.Offered != offered {
		t.Errorf("%s: Offered = %d, want %d", label, res.Offered, offered)
	}
	if got := res.Requests + res.Rejected + res.LostWork + res.Dropped; got != offered {
		t.Errorf("%s: %d completed + %d rejected + %d lost + %d dropped = %d, want %d",
			label, res.Requests, res.Rejected, res.LostWork, res.Dropped, got, offered)
	}
	if err := sched.CheckOutcomeConservation(res.Result); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// TestChurnOffBitIdentical: a nil plan and an empty plan are the same
// thing — no fault injection — and both must be bit-identical to each
// other for every scheduler, dispatcher and rebalance policy. This is
// the PR's primary equivalence anchor: arming the churn subsystem with
// nothing to do changes no byte of any result.
func TestChurnOffBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		reqs, est, lut := randomStream(seed, 60)
		load := SparsityAwareLoad(lut, est)
		for _, spec := range schedSpecs(est, lut) {
			for _, d := range dispatchers(est, lut) {
				for name, mut := range map[string]func(*Config){
					"plain": func(*Config) {},
					"stale": func(c *Config) { c.SignalInterval = 3 * time.Millisecond },
					"stealing": func(c *Config) {
						c.Rebalance = Steal{Load: load}
						c.RebalanceInterval = 2 * time.Millisecond
						c.MigrationCost = time.Millisecond
					},
				} {
					base := Config{Engines: 3, Dispatch: d}
					mut(&base)
					want, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, base)
					if err != nil {
						t.Fatalf("%s/%s/%s (seed %d): %v", spec.name, d.Name(), name, seed, err)
					}
					withEmpty := base
					withEmpty.Churn = &ChurnPlan{}
					withEmpty.RetryMax = 3 // ignored without events
					got, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, withEmpty)
					if err != nil {
						t.Fatalf("%s/%s/%s (seed %d): %v", spec.name, d.Name(), name, seed, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s/%s (seed %d): empty churn plan diverges from nil",
							spec.name, d.Name(), name, seed)
					}
				}
			}
		}
	}
}

// TestChurnAccountingInvariant: under generated churn across schedulers,
// dispatchers and cluster sizes, every request is accounted for in
// exactly one outcome class, and the whole run is deterministic
// (identical on a re-run).
func TestChurnAccountingInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		reqs, est, lut := randomStream(seed, 60)
		horizon := reqs[len(reqs)-1].Arrival * 2
		for _, engines := range []int{2, 4} {
			plan, err := GenChurn(engines, horizon, horizon/6, horizon/12, 100+seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Events) == 0 {
				t.Fatalf("seed %d: degenerate plan, tune MTBF down", seed)
			}
			for _, d := range dispatchers(est, lut) {
				for _, spec := range schedSpecs(est, lut) {
					cfg := Config{Engines: engines, Dispatch: d, Churn: &plan,
						SignalInterval: 2 * time.Millisecond, RetryMax: 2,
						MigrationCost: 500 * time.Microsecond}
					label := spec.name + "/" + d.Name()
					res, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, cfg)
					if err != nil {
						t.Fatalf("%s (seed %d, %d engines): %v", label, seed, engines, err)
					}
					accounted(t, label, res, len(reqs))
					if res.ChurnEvents == 0 {
						t.Errorf("%s: no churn events fired from a %d-event plan",
							label, len(plan.Events))
					}
					again, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, again) {
						t.Fatalf("%s (seed %d): churn run is not deterministic", label, seed)
					}
				}
			}
		}
	}
}

// TestChurnRedirectOnStaleSignals: with a long signal interval, a
// dispatcher keeps routing to an engine that died after the last refresh.
// The cluster must bounce those picks to the live engine — counting each
// redirect — and every request must still complete.
func TestChurnRedirectOnStaleSignals(t *testing.T) {
	// 20 requests, one per ms, 1ms of work each; engine 0 dies at 4.5ms.
	// The board refreshes at t=0 and then not until t=10ms, so JSQ keeps
	// working off the frozen all-zero snapshot, whose tie-break sends
	// every pick to engine 0 — a corpse after 4.5ms.
	reqs := uniformStream(20, time.Millisecond, 500*time.Microsecond, 2, 50*time.Millisecond)
	plan := &ChurnPlan{Events: []ChurnEvent{
		{At: 4500 * time.Microsecond, Engine: 0, Kind: Fail},
	}}
	res, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs,
		Config{Engines: 2, Dispatch: NewJSQ(), Churn: plan,
			SignalInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Redirects == 0 {
		t.Error("no dispatch picks bounced off the dead engine despite stale signals")
	}
	accounted(t, "jsq", res, len(reqs))
	if res.LostWork > 0 || res.Rejected > 0 {
		t.Errorf("one live engine remained, yet %d lost + %d rejected",
			res.LostWork, res.Rejected)
	}
	if res.Requests != len(reqs) {
		t.Errorf("%d of %d requests completed", res.Requests, len(reqs))
	}
}

// TestChurnFailoverRedistributes: killing the engine holding a deep
// queue must move its never-started requests to the survivor (counted as
// failovers) and restart its in-flight request (counted as a retry);
// nothing is lost because a live engine remains.
func TestChurnFailoverRedistributes(t *testing.T) {
	// Everything lands on engine 0 (concentrate dispatcher); engine 0
	// dies mid-stream with a deep queue while request 0 is partway
	// through its four layers. The crash instant (1.2ms) sits between
	// layer boundaries (0.5ms each): the layer spanning it commits —
	// churn takes effect at the next scheduling point, the same
	// discipline rebalance rounds follow — and the task is ripped with
	// three of four layers executed.
	reqs := uniformStream(10, 100*time.Microsecond, 500*time.Microsecond, 4, time.Second)
	plan := &ChurnPlan{Events: []ChurnEvent{
		{At: 1200 * time.Microsecond, Engine: 0, Kind: Fail},
	}}
	res, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs,
		Config{Engines: 2, Dispatch: concentrate{}, Churn: plan})
	if err != nil {
		t.Fatal(err)
	}
	accounted(t, "concentrate", res, len(reqs))
	if res.Failovers == 0 {
		t.Error("no queued work failed over from the dead engine")
	}
	if res.Retries == 0 {
		t.Error("the in-flight request was not restarted")
	}
	if res.Requests != len(reqs) {
		t.Errorf("%d of %d requests completed", res.Requests, len(reqs))
	}
	// The survivor's incarnation served everything that arrived after
	// the crash plus the failovers; engine 0's final incarnation (never
	// recovered) served nothing.
	if res.PerEngine[0].Requests != 0 {
		t.Errorf("dead slot's fresh incarnation completed %d requests", res.PerEngine[0].Requests)
	}
}

// TestChurnAllDownRejectsAndParks: with every engine down, arrivals are
// refused (503-style, counted as rejected) and displaced work parks; a
// recovery un-parks it, and work stranded with no recovery ever is lost
// — never silently dropped.
func TestChurnAllDownRejectsAndParks(t *testing.T) {
	reqs := uniformStream(10, time.Millisecond, 800*time.Microsecond, 2, time.Second)
	// Engine dies at 2.5ms (after ~3 arrivals) and recovers at 6.2ms:
	// arrivals in between have no live engine.
	t.Run("recovered", func(t *testing.T) {
		plan := &ChurnPlan{Events: []ChurnEvent{
			{At: 2500 * time.Microsecond, Engine: 0, Kind: Fail},
			{At: 6200 * time.Microsecond, Engine: 0, Kind: Recover},
		}}
		res, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs,
			Config{Engines: 1, Churn: plan})
		if err != nil {
			t.Fatal(err)
		}
		accounted(t, "recovered", res, len(reqs))
		if res.Rejected == 0 {
			t.Error("arrivals during the outage were not refused")
		}
		if res.LostWork != 0 {
			t.Errorf("%d requests lost despite recovery", res.LostWork)
		}
		if res.Requests+res.Rejected != len(reqs) {
			t.Errorf("completed %d + rejected %d != %d", res.Requests, res.Rejected, len(reqs))
		}
	})
	t.Run("never-recovered", func(t *testing.T) {
		plan := &ChurnPlan{Events: []ChurnEvent{
			{At: 2500 * time.Microsecond, Engine: 0, Kind: Fail},
		}}
		res, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs,
			Config{Engines: 1, Churn: plan})
		if err != nil {
			t.Fatal(err)
		}
		accounted(t, "never-recovered", res, len(reqs))
		if res.LostWork == 0 {
			t.Error("work stranded at the crash was not counted as lost")
		}
		if res.Rejected == 0 {
			t.Error("arrivals after the crash were not refused")
		}
	})
}

// TestChurnRetryCap: a request whose engines keep dying under it
// restarts from zero until the retry cap, then becomes lost work; with
// no cap (RetryMax 0) it survives any number of failures as long as an
// engine eventually stays up.
func TestChurnRetryCap(t *testing.T) {
	// One long request (10 layers of 1ms); the single engine fails at
	// 2.5ms (mid-execution), recovers at 3ms, fails again at 5.5ms
	// (mid-retry), recovers again at 6ms and stays up.
	reqs := uniformStream(1, time.Millisecond, time.Millisecond, 10, time.Minute)
	plan := &ChurnPlan{Events: []ChurnEvent{
		{At: 2500 * time.Microsecond, Engine: 0, Kind: Fail},
		{At: 3000 * time.Microsecond, Engine: 0, Kind: Recover},
		{At: 5500 * time.Microsecond, Engine: 0, Kind: Fail},
		{At: 6000 * time.Microsecond, Engine: 0, Kind: Recover},
	}}
	run := func(retryMax int) Result {
		t.Helper()
		res, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs,
			Config{Engines: 1, Churn: plan, RetryMax: retryMax})
		if err != nil {
			t.Fatal(err)
		}
		accounted(t, "retry", res, len(reqs))
		return res
	}

	unlimited := run(0)
	if unlimited.Requests != 1 || unlimited.LostWork != 0 {
		t.Errorf("unlimited retries: completed %d, lost %d", unlimited.Requests, unlimited.LostWork)
	}
	if unlimited.Retries != 2 {
		t.Errorf("unlimited retries: %d restarts, want 2", unlimited.Retries)
	}

	capped := run(1)
	if capped.LostWork != 1 || capped.Requests != 0 {
		t.Errorf("retry cap 1: completed %d, lost %d; want the second failure to abandon it",
			capped.Requests, capped.LostWork)
	}
	if capped.Retries != 1 {
		t.Errorf("retry cap 1: %d restarts, want 1", capped.Retries)
	}
}

// TestChurnDrainAndJoin: a drained engine finishes what it holds (no
// failover, no losses), takes nothing new until it joins back, and the
// whole stream completes.
func TestChurnDrainAndJoin(t *testing.T) {
	reqs := uniformStream(20, 500*time.Microsecond, 600*time.Microsecond, 2, time.Second)
	plan := &ChurnPlan{Events: []ChurnEvent{
		{At: 3 * time.Millisecond, Engine: 0, Kind: Drain},
		{At: 7 * time.Millisecond, Engine: 0, Kind: Join},
	}}
	res, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs,
		Config{Engines: 2, Dispatch: NewRoundRobin(), Churn: plan})
	if err != nil {
		t.Fatal(err)
	}
	accounted(t, "drain", res, len(reqs))
	if res.Requests != len(reqs) {
		t.Errorf("%d of %d requests completed", res.Requests, len(reqs))
	}
	if res.Failovers != 0 || res.Retries != 0 || res.LostWork != 0 {
		t.Errorf("graceful drain displaced work: %d failovers, %d retries, %d lost",
			res.Failovers, res.Retries, res.LostWork)
	}
	// Both engines served: the drain window shifted work to engine 1 but
	// engine 0 kept its queue and rejoined.
	if res.PerEngine[0].Requests == 0 || res.PerEngine[1].Requests == 0 {
		t.Errorf("per-engine completions %d/%d: drain emptied a slot it shouldn't have",
			res.PerEngine[0].Requests, res.PerEngine[1].Requests)
	}
}

// TestChurnPlanRejected: malformed plans — out-of-range engines,
// negative instants, impossible transitions — fail the run loudly.
func TestChurnPlanRejected(t *testing.T) {
	reqs := uniformStream(3, time.Millisecond, time.Millisecond, 2, time.Second)
	for name, plan := range map[string]*ChurnPlan{
		"bad-engine":      {Events: []ChurnEvent{{At: time.Millisecond, Engine: 2, Kind: Fail}}},
		"negative-time":   {Events: []ChurnEvent{{At: -time.Millisecond, Engine: 0, Kind: Fail}}},
		"bad-kind":        {Events: []ChurnEvent{{At: time.Millisecond, Engine: 0, Kind: ChurnKind(9)}}},
		"double-fail":     {Events: []ChurnEvent{{At: time.Millisecond, Engine: 0, Kind: Fail}, {At: 2 * time.Millisecond, Engine: 0, Kind: Fail}}},
		"recover-healthy": {Events: []ChurnEvent{{At: time.Millisecond, Engine: 0, Kind: Recover}}},
		"drain-dead":      {Events: []ChurnEvent{{At: time.Millisecond, Engine: 0, Kind: Fail}, {At: 2 * time.Millisecond, Engine: 0, Kind: Drain}}},
		"join-healthy":    {Events: []ChurnEvent{{At: time.Millisecond, Engine: 0, Kind: Join}}},
	} {
		_, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs,
			Config{Engines: 2, Churn: plan})
		if err == nil {
			t.Errorf("%s: malformed plan accepted", name)
		} else if !strings.Contains(err.Error(), "churn") {
			t.Errorf("%s: error does not identify the churn plan: %v", name, err)
		}
	}
	if _, err := Run(func(int) sched.Scheduler { return sched.NewFCFS() }, reqs,
		Config{Engines: 1, Churn: &ChurnPlan{Events: []ChurnEvent{
			{At: time.Millisecond, Engine: 0, Kind: Fail}}}, RetryMax: -1}); err == nil {
		t.Error("negative retry cap accepted")
	}
}

// TestGenChurn pins the generator's contracts: determinism, fail/recover
// alternation per engine, per-engine substream independence (an engine's
// schedule does not change when more engines are added), horizon cutoff
// and input validation.
func TestGenChurn(t *testing.T) {
	const horizon = time.Second
	a, err := GenChurn(3, horizon, 100*time.Millisecond, 30*time.Millisecond, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenChurn(3, horizon, 100*time.Millisecond, 30*time.Millisecond, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different plans")
	}
	c, _ := GenChurn(3, horizon, 100*time.Millisecond, 30*time.Millisecond, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same plan")
	}
	if len(a.Events) == 0 {
		t.Fatal("no events over ten expected failures per engine")
	}
	// Per engine: strictly increasing times, strict fail/recover
	// alternation starting with a failure, all inside the horizon.
	perEngine := map[int][]ChurnEvent{}
	for _, ev := range a.Events {
		if ev.At < 0 || ev.At >= horizon {
			t.Errorf("event %+v outside horizon", ev)
		}
		perEngine[ev.Engine] = append(perEngine[ev.Engine], ev)
	}
	for i, evs := range perEngine {
		for k, ev := range evs {
			want := Fail
			if k%2 == 1 {
				want = Recover
			}
			if ev.Kind != want {
				t.Errorf("engine %d event %d: %s, want %s", i, k, ev.Kind, want)
			}
			if k > 0 && ev.At <= evs[k-1].At {
				t.Errorf("engine %d: non-increasing event times", i)
			}
		}
	}
	// Adding engines must not reshuffle existing engines' schedules.
	wide, _ := GenChurn(5, horizon, 100*time.Millisecond, 30*time.Millisecond, 42)
	for i := 0; i < 3; i++ {
		var narrow, grown []ChurnEvent
		for _, ev := range a.Events {
			if ev.Engine == i {
				narrow = append(narrow, ev)
			}
		}
		for _, ev := range wide.Events {
			if ev.Engine == i {
				grown = append(grown, ev)
			}
		}
		if !reflect.DeepEqual(narrow, grown) {
			t.Errorf("engine %d schedule changed when the cluster grew", i)
		}
	}
	// Sorted by (time, engine).
	for k := 1; k < len(a.Events); k++ {
		p, q := a.Events[k-1], a.Events[k]
		if q.At < p.At || (q.At == p.At && q.Engine < p.Engine) {
			t.Errorf("events out of order at %d", k)
		}
	}
	for name, bad := range map[string]func() (ChurnPlan, error){
		"zero-engines": func() (ChurnPlan, error) { return GenChurn(0, horizon, time.Millisecond, time.Millisecond, 1) },
		"zero-horizon": func() (ChurnPlan, error) { return GenChurn(1, 0, time.Millisecond, time.Millisecond, 1) },
		"zero-mtbf":    func() (ChurnPlan, error) { return GenChurn(1, horizon, 0, time.Millisecond, 1) },
		"zero-mttr":    func() (ChurnPlan, error) { return GenChurn(1, horizon, time.Millisecond, 0, 1) },
	} {
		if _, err := bad(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// genChurnAppend is GenChurn as it was before it counted its events:
// each engine's transitions appended in engine order, then stably sorted
// by (time, engine). It is the oracle for the counted plan.
func genChurnAppend(engines int, horizon, mtbf, mttr time.Duration, seed uint64) []ChurnEvent {
	root := rng.New(seed)
	var events []ChurnEvent
	for i := 0; i < engines; i++ {
		r := root.Split()
		t := time.Duration(0)
		up := true
		for {
			mean := mtbf
			if !up {
				mean = mttr
			}
			t += time.Duration(r.Exp(1.0 / float64(mean)))
			if t >= horizon {
				break
			}
			kind := Fail
			if !up {
				kind = Recover
			}
			events = append(events, ChurnEvent{At: t, Engine: i, Kind: kind})
			up = !up
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Engine < b.Engine
	})
	return events
}

// TestGenChurnMatchesAppendOracle: counting the events first and then
// drawing them into a slice of that length yields the append-then-sort
// plan event for event, with no spare capacity. The grid reaches
// same-instant events on one engine (nanosecond means, whose deviates
// often truncate to 0), engines that never fail (an MTBF past the
// horizon) and empty plans; cells expected to pass 100k events are left
// out to keep the oracle small.
func TestGenChurnMatchesAppendOracle(t *testing.T) {
	cells, ties := 0, 0
	for _, engines := range []int{1, 3, 8} {
		for _, horizon := range []time.Duration{10 * time.Microsecond, 10 * time.Millisecond, time.Second} {
			for _, mtbf := range []time.Duration{3 * time.Nanosecond, 10 * time.Microsecond, time.Millisecond, 3 * time.Second} {
				for _, mttr := range []time.Duration{time.Nanosecond, 5 * time.Microsecond, 200 * time.Millisecond} {
					if float64(engines)*2*float64(horizon)/float64(mtbf+mttr) > 100_000 {
						continue
					}
					for seed := uint64(1); seed <= 2; seed++ {
						label := fmt.Sprintf("%d engines, horizon %v, MTBF %v, MTTR %v, seed %d",
							engines, horizon, mtbf, mttr, seed)
						plan, err := GenChurn(engines, horizon, mtbf, mttr, seed)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if want := genChurnAppend(engines, horizon, mtbf, mttr, seed); !reflect.DeepEqual(plan.Events, want) {
							t.Fatalf("%s: counted plan of %d events differs from the append oracle's %d",
								label, len(plan.Events), len(want))
						}
						if len(plan.Events) != cap(plan.Events) {
							t.Errorf("%s: %d events in a slice of capacity %d", label, len(plan.Events), cap(plan.Events))
						}
						cells++
						for k := 1; k < len(plan.Events); k++ {
							if p, q := plan.Events[k-1], plan.Events[k]; p.At == q.At && p.Engine == q.Engine {
								ties++
							}
						}
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Errorf("none of the %d cells drew two events on one engine at one instant", cells)
	}
}

// TestGenChurnRefusesHugePlans: a nanosecond MTBF and MTTR over a 5 s
// horizon asks for ~3.4e10 events. The count stops once it passes
// maxChurnEvents, so GenChurn fails fast and allocates next to nothing,
// with an error naming the engine count, horizon, MTBF, MTTR and bound.
func TestGenChurnRefusesHugePlans(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := GenChurn(4, 5*time.Second, time.Nanosecond, time.Nanosecond, 1)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a plan of ~3.4e10 events was accepted")
	}
	for _, want := range []string{"4 engines", "horizon 5s", "MTBF 1ns", "MTTR 1ns", fmt.Sprint(maxChurnEvents)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	limit := time.Second
	if raceEnabled {
		limit *= 10
	}
	if elapsed > limit {
		t.Errorf("refusing the plan took %v", elapsed)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
		t.Errorf("refusing the plan allocated %d bytes", b)
	}
}

// TestInjectorReadsSortedPlansInPlace: the injector only reads its plan,
// so it uses a sorted plan's own backing array, while an unsorted plan
// is sorted in a copy: the caller's order stays as it was, and the run
// equals the run on the sorted plan.
func TestInjectorReadsSortedPlansInPlace(t *testing.T) {
	reqs, est, _ := randomStream(5, 80)
	horizon := reqs[len(reqs)-1].Arrival * 2
	plan, err := GenChurn(3, horizon, horizon/6, horizon/12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Events) < 2 {
		t.Fatalf("plan of %d events cannot be unsorted", len(plan.Events))
	}
	inject := func(p *ChurnPlan) *faultInjector {
		t.Helper()
		engines := make([]*sched.Engine, 3)
		for i := range engines {
			engines[i] = sched.NewEngine(sched.NewFCFS(), sched.Options{})
		}
		fi, err := newFaultInjector(p, engines, NewSignalBoard(engines, 0, nil), NewRoundRobin(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	if fi := inject(&plan); &fi.plan[0] != &plan.Events[0] {
		t.Error("the injector copied a sorted plan")
	}
	// The last event first: a stable sort puts it back.
	n := len(plan.Events)
	unsorted := ChurnPlan{Events: append(slices.Clone(plan.Events[n-1:]), plan.Events[:n-1]...)}
	order := slices.Clone(unsorted.Events)
	if fi := inject(&unsorted); &fi.plan[0] == &unsorted.Events[0] || !reflect.DeepEqual(fi.plan, plan.Events) {
		t.Errorf("the injector did not sort an unsorted plan in a copy of its own")
	}
	sjf := func(int) sched.Scheduler { return sched.NewSJF(est) }
	cfg := Config{Engines: 3, Churn: &plan, Sched: sched.Options{RecordTasks: true}}
	want, err := Run(sjf, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Churn = &unsorted
	got, err := Run(sjf, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the run on the unsorted plan diverges from the run on the sorted one:\n%+v\nvs\n%+v", got, want)
	}
	if !reflect.DeepEqual(unsorted.Events, order) {
		t.Error("the run reordered the caller's plan")
	}
	if want.ChurnEvents == 0 {
		t.Error("no churn event fired")
	}
}

// newestFirst runs the latest arrival (highest ID on a tie), so every
// arrival preempts the running request: the simplest preempting
// scheduler that needs no latency estimate. It keeps no per-task state,
// so its OnExtract, which a crash calls, has nothing to release.
type newestFirst struct{}

func (newestFirst) Name() string                                             { return "newest-first" }
func (newestFirst) OnArrival(*sched.Task, time.Duration)                     {}
func (newestFirst) OnLayerComplete(*sched.Task, int, float64, time.Duration) {}
func (newestFirst) OnExtract(*sched.Task, time.Duration)                     {}
func (newestFirst) PickNext(ready []*sched.Task, _ time.Duration) *sched.Task {
	best := ready[0]
	for _, t := range ready[1:] {
		if t.Arrival > best.Arrival || (t.Arrival == best.Arrival && t.ID > best.ID) {
			best = t
		}
	}
	return best
}

// TestChurnCountsCrashedPreemptions: an incarnation that preempted and
// then crashed before completing anything still contributes its
// preemptions to the cluster total.
func TestChurnCountsCrashedPreemptions(t *testing.T) {
	// Both requests land on engine 0: request 0 runs 0-0.5ms, request 1
	// (arrived at 0.25ms) preempts it at 0.5ms, and engine 0 dies at
	// 0.75ms with both started. Engine 1 then runs request 1 to
	// completion and request 0 after it, preempting nothing.
	reqs := uniformStream(2, 250*time.Microsecond, 500*time.Microsecond, 4, time.Second)
	res, err := Run(func(int) sched.Scheduler { return newestFirst{} }, reqs, Config{
		Engines: 2, Dispatch: concentrate{},
		Churn: &ChurnPlan{Events: []ChurnEvent{{At: 750 * time.Microsecond, Engine: 0, Kind: Fail}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	accounted(t, "crashed-preemption", res, len(reqs))
	if res.Retries != 2 || res.Requests != 2 {
		t.Fatalf("%d retries, %d completed; want both requests restarted and completed",
			res.Retries, res.Requests)
	}
	survivors := 0
	for _, r := range res.PerEngine {
		survivors += r.Preemptions
	}
	if survivors != 0 || res.Preemptions != 1 {
		t.Errorf("cluster reports %d preemptions (%d on the final incarnations), want the crashed one's 1",
			res.Preemptions, survivors)
	}
}

// TestChurnDrainStopsAtLastCompletion: the drain stops once no engine
// has an event and nothing is parked, so plan events past the last
// completion never fire (they would only crash and recover idle engines,
// billing in-service time nobody used). Cutting them from the plan must
// therefore change no Result field: ChurnEvents, EngineSeconds,
// Utilization and PerEngine included.
func TestChurnDrainStopsAtLastCompletion(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		reqs, est, lut := randomStream(seed, 80)
		// Stretched 8x, the stream loads 3 engines to about 40%, so the
		// cluster drains soon after the last arrival.
		for _, r := range reqs {
			r.Arrival *= 8
		}
		lastArrival := reqs[len(reqs)-1].Arrival
		plan, err := GenChurn(3, 2*lastArrival, lastArrival/4, lastArrival/20, 200+seed)
		if err != nil {
			t.Fatal(err)
		}
		load := SparsityAwareLoad(lut, est)
		run := func(plan ChurnPlan) Result {
			t.Helper()
			res, err := Run(func(int) sched.Scheduler { return core.NewDefault(lut) }, reqs, Config{
				Engines: 3, Dispatch: NewLeastLoad("sparse-load", load), Churn: &plan, RetryMax: 3,
				Rebalance: Steal{Load: load}, RebalanceInterval: 2 * time.Millisecond,
				MigrationCost: 500 * time.Microsecond, Sched: sched.Options{RecordTasks: true}})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res
		}
		full := run(plan)
		var last time.Duration
		for _, o := range full.Tasks {
			last = max(last, o.Completion)
		}
		if last < lastArrival {
			t.Fatalf("seed %d: last completion %v precedes the last arrival %v", seed, last, lastArrival)
		}
		var cut ChurnPlan
		for _, ev := range plan.Events {
			if ev.At <= last {
				cut.Events = append(cut.Events, ev)
			}
		}
		if len(cut.Events) == len(plan.Events) || full.Failovers+full.Retries == 0 {
			t.Fatalf("seed %d: %d of %d events past the last completion, %d failovers, %d retries: the check is vacuous",
				seed, len(plan.Events)-len(cut.Events), len(plan.Events), full.Failovers, full.Retries)
		}
		if got := run(cut); !reflect.DeepEqual(got, full) {
			t.Errorf("seed %d: plan cut at the last completion diverges: %d vs %d churn events, %.3f vs %.3f engine-seconds, utilization %.3f vs %.3f",
				seed, got.ChurnEvents, full.ChurnEvents, got.EngineSeconds, full.EngineSeconds, got.Utilization, full.Utilization)
		}
	}
}

// noExtractor hides its scheduler's OnExtract: embedding the interface
// promotes only the Scheduler methods. It counts arrivals.
type noExtractor struct {
	sched.Scheduler
	arrivals *int
}

func (s noExtractor) OnArrival(t *sched.Task, now time.Duration) {
	*s.arrivals++
	s.Scheduler.OnArrival(t, now)
}

// TestChurnRequiresTaskExtractor: a crash releases every delivered
// request through OnExtract, so a run whose plan fails an engine is
// rejected before it simulates anything when a scheduler is no
// sched.TaskExtractor, with an error naming the scheduler. A plan that
// only drains and joins crashes nothing and runs.
func TestChurnRequiresTaskExtractor(t *testing.T) {
	reqs := uniformStream(20, time.Millisecond, 500*time.Microsecond, 4, time.Second)
	arrivals := 0
	newSched := func(int) sched.Scheduler { return noExtractor{newestFirst{}, &arrivals} }
	_, err := Run(newSched, reqs, Config{Engines: 2,
		Churn: &ChurnPlan{Events: []ChurnEvent{{At: 5 * time.Millisecond, Engine: 1, Kind: Fail}}}})
	if err == nil || !strings.Contains(err.Error(), "newest-first") || !strings.Contains(err.Error(), "TaskExtractor") {
		t.Fatalf("churned run over a scheduler without OnExtract: err = %v, want a TaskExtractor error naming newest-first", err)
	}
	if arrivals != 0 {
		t.Errorf("the rejected run delivered %d requests before failing", arrivals)
	}
	res, err := Run(newSched, reqs, Config{Engines: 2, Churn: &ChurnPlan{Events: []ChurnEvent{
		{At: 5 * time.Millisecond, Engine: 1, Kind: Drain}, {At: 10 * time.Millisecond, Engine: 1, Kind: Join}}}})
	if err != nil {
		t.Fatalf("drain/join plan: %v", err)
	}
	accounted(t, "drain-join", res, len(reqs))
}
