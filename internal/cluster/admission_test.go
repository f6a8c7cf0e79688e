package cluster

import (
	"math"
	"reflect"
	"testing"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
)

// TestAdmitAllMatchesNilAdmission: the explicit no-op policy is the nil
// default, bit-identically, and rejects nothing.
func TestAdmitAllMatchesNilAdmission(t *testing.T) {
	reqs, est, _ := randomStream(4, 50)
	mk := func(int) sched.Scheduler { return sched.NewSJF(est) }
	plain, err := Run(mk, reqs, Config{Engines: 2, Dispatch: NewJSQ()})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Run(mk, reqs, Config{Engines: 2, Dispatch: NewJSQ(), Admission: AdmitAll{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, explicit) {
		t.Error("AdmitAll diverges from nil admission")
	}
	if plain.Rejected != 0 {
		t.Errorf("nil admission rejected %d requests", plain.Rejected)
	}
}

// TestQueueCapSheds: a tight per-engine cap under a saturating stream
// must shed some requests, count them, and keep the accounting identity
// completed + rejected == offered.
func TestQueueCapSheds(t *testing.T) {
	reqs, est, _ := randomStream(6, 200)
	for _, r := range reqs {
		r.Arrival /= 20
	}
	res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs,
		Config{Engines: 2, Dispatch: NewJSQ(), Admission: QueueCap{Cap: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("cap 3 under saturation shed nothing")
	}
	if res.Requests+res.Rejected != len(reqs) {
		t.Fatalf("completed %d + rejected %d != offered %d", res.Requests, res.Rejected, len(reqs))
	}
	if res.Admission != "queue-cap:3" {
		t.Errorf("admission echoed as %q", res.Admission)
	}
	// No engine ever holds more than the cap at an admission instant, so
	// outstanding work per engine stays bounded; all admitted requests
	// still complete (the cluster always drains).
	if res.Dropped != 0 {
		t.Errorf("admitted requests dropped: %d", res.Dropped)
	}
	if res.Goodput <= 0 || math.IsNaN(res.Goodput) {
		t.Errorf("goodput %v", res.Goodput)
	}
	if res.Goodput > res.Throughput {
		t.Errorf("goodput %.2f above throughput %.2f", res.Goodput, res.Throughput)
	}
}

// TestSLOShedRaisesGoodputShare: under a saturating stream with tight
// SLOs the predictive shed rejects some arrivals, every metric stays
// consistent, and the admitted traffic violates less often than the
// unprotected run's — the policy removes predicted violators at the door
// instead of letting them burn accelerator time in the queue.
func TestSLOShedRaisesGoodputShare(t *testing.T) {
	reqs, est, lut := randomStream(8, 250)
	for _, r := range reqs {
		r.Arrival /= 25
		r.SLO /= 4
	}
	load := SparsityAwareLoad(lut, est)
	mk := func(int) sched.Scheduler { return sched.NewSJF(est) }
	unprotected, err := Run(mk, reqs, Config{Engines: 2, Dispatch: NewLeastLoad("load", load)})
	if err != nil {
		t.Fatal(err)
	}
	shed, err := Run(mk, reqs, Config{
		Engines:   2,
		Dispatch:  NewLeastLoad("load", load),
		Admission: SLOShed{Iso: RequestIsolated(lut, est)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if shed.Rejected == 0 {
		t.Fatal("predictive shed rejected nothing under saturation with tight SLOs")
	}
	if shed.Requests+shed.Rejected != len(reqs) {
		t.Fatalf("completed %d + rejected %d != offered %d", shed.Requests, shed.Rejected, len(reqs))
	}
	if shed.ViolationRate > unprotected.ViolationRate {
		t.Errorf("admitted traffic violates more under shedding (%.3f) than without (%.3f)",
			shed.ViolationRate, unprotected.ViolationRate)
	}
	if unprotected.Rejected != 0 {
		t.Errorf("unprotected run rejected %d", unprotected.Rejected)
	}
}

// TestSLOShedSuppliesBacklogSignal: behind a dispatcher with no load
// estimate of its own (round-robin), the shed's Load function must back
// the board's Backlog signal — otherwise every queue reads as empty and
// the policy silently degrades to AdmitAll.
func TestSLOShedSuppliesBacklogSignal(t *testing.T) {
	reqs, est, lut := randomStream(8, 250)
	for _, r := range reqs {
		r.Arrival /= 25
		r.SLO /= 4
	}
	res, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs,
		Config{
			Engines:  2,
			Dispatch: NewRoundRobin(),
			Admission: SLOShed{
				Iso:  RequestIsolated(lut, est),
				Load: SparsityAwareLoad(lut, est),
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("slo shed behind round-robin saw every queue as empty and shed nothing")
	}
	if res.Requests+res.Rejected != len(reqs) {
		t.Fatalf("completed %d + rejected %d != offered %d", res.Requests, res.Rejected, len(reqs))
	}
}

// TestRequestIsolatedFallbackChain: profiled pair -> LUT entry; profiled
// model under another pattern -> pattern-blind merge; unknown model ->
// population mean. Deterministic at every level.
func TestRequestIsolatedFallbackChain(t *testing.T) {
	reqs, est, lut := unprofiledStream(1)
	iso := RequestIsolated(lut, est)

	profiled := rekeyed(reqs[0], lut.Keys()[0])
	if got := iso(profiled); got != lut.Lookup(profiled.Key()).AvgTotal {
		t.Errorf("profiled pair estimate %v, want LUT AvgTotal", got)
	}
	if got := iso(reqs[0]); got != est.ModelStats(reqs[0].Key().Model()).AvgTotal {
		t.Errorf("unprofiled-pattern estimate %v, want model merge", got)
	}
	alien := rekeyed(reqs[0], trace.NewKey("never-profiled", reqs[0].Key().Pattern()))
	if got := iso(alien); got != est.MeanIsolated() {
		t.Errorf("unknown-model estimate %v, want population mean %v", got, est.MeanIsolated())
	}
}
