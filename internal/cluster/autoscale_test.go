package cluster

import (
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// flatLoad is a trivial load estimate for crafted-stream tests: every
// outstanding task counts a fixed amount of predicted work, so an
// engine's Backlog signal is just its queue length times the unit.
func flatLoad(unit time.Duration) func(*sched.Task) time.Duration {
	return func(*sched.Task) time.Duration { return unit }
}

// burstyStream builds a deterministic overload-then-idle stream: `heavy`
// requests arriving every heavyGap (each carrying layers*layer of work),
// followed by `light` requests arriving every lightGap. Generous SLOs
// keep violations out of the picture — these tests are about lifecycle
// mechanics, not scheduling quality.
func burstyStream(heavy, light int, heavyGap, lightGap, layer time.Duration, layers int) []*workload.Request {
	base := uniformStream(heavy+light, heavyGap, layer, layers, time.Hour)
	at := time.Duration(heavy) * heavyGap
	for i := heavy; i < len(base); i++ {
		at += lightGap
		base[i].Arrival = at
	}
	return base
}

// fcfs builds the scheduler factory the autoscale tests share.
func fcfs(int) sched.Scheduler { return sched.NewFCFS() }

// TestAutoscaleOffMatchesFixed is the neutral-knob anchor: an autoscaler
// pinned to Min == Max == N (which can never act) must reproduce the
// fixed-size run's scheduling results exactly — same per-task outcomes,
// same per-engine results, no redirects — for every scheduler and
// dispatcher. Only the capacity accounting may differ (the lifecycle
// path bills in-service spans measured from t=0 rather than N x
// makespan), so EngineSeconds and the utilization denominators are
// compared structurally, not byte-for-byte.
func TestAutoscaleOffMatchesFixed(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		reqs, est, lut := randomStream(seed, 60)
		for _, spec := range schedSpecs(est, lut) {
			for _, d := range dispatchers(est, lut) {
				base := Config{Engines: 3, Dispatch: d}
				want, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, base)
				if err != nil {
					t.Fatal(err)
				}
				pinned := base
				pinned.Autoscale = &Autoscaler{
					Min: 3, Max: 3, Up: time.Hour, Load: SparsityAwareLoad(lut, est)}
				got, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, pinned)
				if err != nil {
					t.Fatal(err)
				}
				label := spec.name + "/" + d.Name()
				if got.ScaleUps != 0 || got.ScaleDowns != 0 {
					t.Fatalf("%s: pinned autoscaler acted (%d up, %d down)",
						label, got.ScaleUps, got.ScaleDowns)
				}
				if got.Redirects != 0 {
					t.Fatalf("%s: pinned autoscaler caused %d redirects", label, got.Redirects)
				}
				// Normalize the capacity fields, then demand bit-identity.
				g, w := got, want
				g.Result.EngineSeconds, w.Result.EngineSeconds = 0, 0
				g.Utilization, w.Utilization = 0, 0
				g.Imbalance, w.Imbalance = 0, 0
				g.ScaleUps, g.ScaleDowns = 0, 0
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s seed %d: pinned autoscaler changed scheduling results", label, seed)
				}
			}
		}
	}
}

// TestAutoscaleScalesUpAndDown drives the policy through a full cycle:
// an overload phase must grow the live set toward Max, the idle tail
// must shrink it back, and the billed capacity must come in under the
// fixed-Max bill.
func TestAutoscaleScalesUpAndDown(t *testing.T) {
	// 40 requests of 4ms work arriving every 1ms: one engine is 4x
	// oversubscribed, so backlog explodes. Then 30 requests at a lazy
	// 50ms spacing that a single engine serves with ease.
	reqs := burstyStream(40, 30, time.Millisecond, 50*time.Millisecond, time.Millisecond, 4)
	unit := 4 * time.Millisecond
	cfg := Config{
		Engines:  4,
		Dispatch: NewJSQ(),
		Autoscale: &Autoscaler{
			Min:  1,
			Max:  4,
			Up:   2 * unit,        // mean queue > 2 requests per live engine
			Down: unit / 2,        // mean queue < half a request
			Load: flatLoad(unit)}, // backlog == queue length * unit
	}
	res, err := Run(fcfs, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	accounted(t, "autoscale cycle", res, len(reqs))
	if res.ScaleUps < 2 {
		t.Errorf("overload phase scaled up only %d times", res.ScaleUps)
	}
	if res.ScaleDowns < 1 {
		t.Errorf("idle tail never scaled down (%d ups, %d downs)", res.ScaleUps, res.ScaleDowns)
	}
	fixedMax := 4 * res.Makespan.Seconds()
	if res.EngineSeconds >= fixedMax {
		t.Errorf("autoscaled run billed %.4f engine-seconds, fixed-Max would bill %.4f",
			res.EngineSeconds, fixedMax)
	}
	if res.EngineSeconds <= res.Makespan.Seconds() {
		t.Errorf("billed %.4f engine-seconds, no more than a single always-on engine (%.4f) despite scale-ups",
			res.EngineSeconds, res.Makespan.Seconds())
	}
}

// TestAutoscaleRespectsBounds pins Min and Max: slots beyond Max never
// serve a request, and the policy never drains below Min even through a
// long idle tail.
func TestAutoscaleRespectsBounds(t *testing.T) {
	reqs := burstyStream(40, 30, time.Millisecond, 50*time.Millisecond, time.Millisecond, 4)
	unit := 4 * time.Millisecond
	cfg := Config{
		Engines:  4,
		Dispatch: NewJSQ(),
		Autoscale: &Autoscaler{
			Min: 2, Max: 3, Up: 2 * unit, Down: unit / 2, Load: flatLoad(unit)},
	}
	res, err := Run(fcfs, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	accounted(t, "bounds", res, len(reqs))
	if res.PerEngine[3].Requests != 0 {
		t.Errorf("slot beyond Max served %d requests", res.PerEngine[3].Requests)
	}
	// Net actions can never take the live set below Min: with Start ==
	// Min == 2 the downs cannot exceed the ups.
	if res.ScaleDowns > res.ScaleUps {
		t.Errorf("%d downs exceed %d ups from a Start == Min cluster", res.ScaleDowns, res.ScaleUps)
	}
	// The overload phase must have used the allowed headroom.
	if res.ScaleUps < 1 {
		t.Error("never scaled up under 4x overload")
	}
}

// TestAutoscaleCooldown pins hysteresis: a cooldown longer than the run
// admits at most one action total, however hard the load oscillates.
func TestAutoscaleCooldown(t *testing.T) {
	reqs := burstyStream(40, 30, time.Millisecond, 50*time.Millisecond, time.Millisecond, 4)
	unit := 4 * time.Millisecond
	cfg := Config{
		Engines:  4,
		Dispatch: NewJSQ(),
		Autoscale: &Autoscaler{
			Min: 1, Max: 4, Up: 2 * unit, Down: unit / 2,
			Cooldown: time.Hour, Load: flatLoad(unit)},
	}
	res, err := Run(fcfs, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleUps+res.ScaleDowns > 1 {
		t.Errorf("cooldown of an hour admitted %d actions", res.ScaleUps+res.ScaleDowns)
	}
}

// TestAutoscaleLiveSetMetrics is the regression test for the live-set
// metric denominators: two permanently parked slots must not dilute
// Utilization or Imbalance. With the work split evenly over the two live
// engines, Imbalance must sit at ~1.0 (the all-slots formula would
// report ~2.0: max/mean with two zero-busy slots in the mean) and
// Utilization must equal total busy time over the billed engine-seconds.
func TestAutoscaleLiveSetMetrics(t *testing.T) {
	const n = 40
	work := 4 * time.Millisecond // per request: 4 layers x 1ms
	reqs := uniformStream(n, 3*time.Millisecond, time.Millisecond, 4, time.Hour)
	cfg := Config{
		Engines:  4,
		Dispatch: NewRoundRobin(),
		Autoscale: &Autoscaler{
			Min: 2, Max: 2, Up: time.Hour, Load: flatLoad(work)},
	}
	res, err := Run(fcfs, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerEngine[2].Requests != 0 || res.PerEngine[3].Requests != 0 {
		t.Fatalf("parked slots served requests: %d, %d",
			res.PerEngine[2].Requests, res.PerEngine[3].Requests)
	}
	if res.Imbalance > 1.2 {
		t.Errorf("Imbalance %.3f over the live set, want ~1.0 (parked slots diluting?)", res.Imbalance)
	}
	totalBusy := (time.Duration(n) * work).Seconds()
	wantUtil := totalBusy / res.EngineSeconds
	if diff := res.Utilization - wantUtil; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Utilization %.6f, want busy/EngineSeconds = %.6f", res.Utilization, wantUtil)
	}
	// Two live engines billed from t=0 to the end: EngineSeconds must be
	// ~2x the run span, nowhere near the 4x of the all-slots bill.
	if res.EngineSeconds > 2.5*res.Makespan.Seconds() {
		t.Errorf("EngineSeconds %.4f bills parked slots (makespan %.4f)",
			res.EngineSeconds, res.Makespan.Seconds())
	}
}

// TestAutoscaleDeterminism: identical configs replay bit-identically,
// including the scale action sequence.
func TestAutoscaleDeterminism(t *testing.T) {
	reqs := burstyStream(40, 30, time.Millisecond, 50*time.Millisecond, time.Millisecond, 4)
	unit := 4 * time.Millisecond
	mk := func() Config {
		return Config{
			Engines:        4,
			Dispatch:       NewJSQ(),
			SignalInterval: 5 * time.Millisecond,
			Autoscale: &Autoscaler{
				Min: 1, Max: 4, Up: 2 * unit, Down: unit / 2,
				Cooldown: 10 * time.Millisecond, Load: flatLoad(unit)},
		}
	}
	a, err := Run(fcfs, reqs, mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fcfs, reqs, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical autoscaled runs diverged")
	}
	if a.ScaleUps == 0 {
		t.Fatal("fixture never scaled; determinism test is vacuous")
	}
}

// TestAutoscaleWithChurn composes the autoscaler with a fail/recover
// plan: the run must stay conservation-clean and deterministic while
// both subsystems reshape the live set.
func TestAutoscaleWithChurn(t *testing.T) {
	reqs := burstyStream(40, 30, time.Millisecond, 50*time.Millisecond, time.Millisecond, 4)
	unit := 4 * time.Millisecond
	plan, err := GenChurn(4, 2*time.Second, 60*time.Millisecond, 20*time.Millisecond, 17)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() Config {
		return Config{
			Engines:        4,
			Dispatch:       NewJSQ(),
			SignalInterval: 2 * time.Millisecond,
			Churn:          &plan,
			Autoscale: &Autoscaler{
				Min: 1, Max: 4, Up: 2 * unit, Down: unit / 2,
				Cooldown: 5 * time.Millisecond, Load: flatLoad(unit)},
		}
	}
	a, err := Run(fcfs, reqs, mk())
	if err != nil {
		t.Fatal(err)
	}
	accounted(t, "autoscale+churn", a, len(reqs))
	b, err := Run(fcfs, reqs, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("autoscale+churn runs diverged")
	}
	if a.ChurnEvents == 0 {
		t.Fatal("churn plan never fired; composition test is vacuous")
	}
}

// TestAutoscaleValidation maps malformed policies to errors before the
// run starts.
func TestAutoscaleValidation(t *testing.T) {
	reqs := uniformStream(5, time.Millisecond, time.Millisecond, 2, time.Hour)
	bad := map[string]*Autoscaler{
		"min zero":         {Min: 0, Max: 2, Up: time.Millisecond},
		"max below min":    {Min: 3, Max: 2, Up: time.Millisecond},
		"max over cluster": {Min: 1, Max: 5, Up: time.Millisecond},
		"no up threshold":  {Min: 1, Max: 2},
		"down above up":    {Min: 1, Max: 2, Up: time.Millisecond, Down: time.Second},
		"negative cool":    {Min: 1, Max: 2, Up: time.Millisecond, Cooldown: -time.Second},
	}
	for name, pol := range bad {
		cfg := Config{Engines: 4, Autoscale: pol}
		if _, err := Run(fcfs, reqs, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
