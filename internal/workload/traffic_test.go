package workload

import (
	"math"
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/traffic"
)

// TestGenerateGoldenArrivals pins the seed -> stream contract with
// literal values: GenConfig.Seed fully determines arrival times, IDs and
// sampled models, and these exact bytes are what the extracted Poisson
// process must keep reproducing. If this test breaks, every historical
// experiment seed means something different.
func TestGenerateGoldenArrivals(t *testing.T) {
	sc := MultiAttNN()
	_, eval := buildSmall(t, sc)
	reqs, err := Generate(sc, eval, GenConfig{
		Requests: 8, RatePerSec: 30, SLOMultiplier: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		arrivalNS int64
		model     string
		sloNS     int64
	}{
		{11861724, "bert", 471568550},
		{12497830, "gpt2", 307398990},
		{105862962, "bert", 471568550},
		{168699139, "bart", 210773010},
		{170798353, "gpt2", 307398990},
		{190073348, "bert", 471568550},
		{251896676, "bert", 471568550},
		{266186625, "gpt2", 307398990},
	}
	if len(reqs) != len(golden) {
		t.Fatalf("got %d requests, want %d", len(reqs), len(golden))
	}
	for i, g := range golden {
		r := reqs[i]
		if r.ID != i {
			t.Errorf("request %d: ID %d", i, r.ID)
		}
		if int64(r.Arrival) != g.arrivalNS {
			t.Errorf("request %d: arrival %dns, want %dns", i, int64(r.Arrival), g.arrivalNS)
		}
		if r.Key().Model() != g.model {
			t.Errorf("request %d: model %q, want %q", i, r.Key().Model(), g.model)
		}
		if int64(r.SLO) != g.sloNS {
			t.Errorf("request %d: SLO %dns, want %dns", i, int64(r.SLO), g.sloNS)
		}
	}
}

// TestGenerateExplicitPoissonBitIdentical is the neutral-knob anchor of
// the traffic extraction: passing traffic.Poisson explicitly produces
// the byte-identical stream the nil default (historical inline loop)
// produces, for every field of every request.
func TestGenerateExplicitPoissonBitIdentical(t *testing.T) {
	sc := MultiAttNN()
	_, eval := buildSmall(t, sc)
	for seed := uint64(1); seed <= 5; seed++ {
		base := GenConfig{Requests: 200, RatePerSec: 30, SLOMultiplier: 10, Seed: seed}
		want, err := Generate(sc, eval, base)
		if err != nil {
			t.Fatal(err)
		}
		withProc := base
		withProc.Process = traffic.NewPoisson(30)
		got, err := Generate(sc, eval, withProc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: explicit poisson process diverged from default", seed)
		}
	}
}

// TestGenerateWithMMPP checks non-stationary generation end to end:
// valid monotone stream, deterministic regeneration (Process is Reset
// by Generate), and arrivals that differ from the stationary ones.
func TestGenerateWithMMPP(t *testing.T) {
	sc := MultiAttNN()
	_, eval := buildSmall(t, sc)
	cfg := GenConfig{Requests: 300, RatePerSec: 30, SLOMultiplier: 10, Seed: 3,
		Process: traffic.Bursty(30, 8, 0.2, 500*time.Millisecond)}
	a, err := Generate(sc, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(a); i++ {
		if a[i].Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals decrease at %d", i)
		}
	}
	b, err := Generate(sc, eval, cfg) // same stateful Process instance, reused
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("reusing the same MMPP instance changed the stream (Reset broken)")
	}
	plain, err := Generate(sc, eval, GenConfig{
		Requests: 300, RatePerSec: 30, SLOMultiplier: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a[len(a)-1].Arrival == plain[len(plain)-1].Arrival {
		t.Fatal("MMPP stream identical to stationary Poisson")
	}
}

// TestGenerateWithReplay checks that a replayed recording drives the
// arrival clock exactly while sampling still follows the seed.
func TestGenerateWithReplay(t *testing.T) {
	sc := MultiAttNN()
	_, eval := buildSmall(t, sc)
	rec := []time.Duration{5 * time.Millisecond, 9 * time.Millisecond, 20 * time.Millisecond}
	cfg := GenConfig{Requests: 5, SLOMultiplier: 10, Seed: 3,
		Process: traffic.NewReplay("synthetic", rec)}
	reqs, err := Generate(sc, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{
		5 * time.Millisecond, 9 * time.Millisecond, 20 * time.Millisecond,
		25 * time.Millisecond, 29 * time.Millisecond,
	}
	for i, r := range reqs {
		if r.Arrival != want[i] {
			t.Errorf("request %d arrives at %v, want %v", i, r.Arrival, want[i])
		}
	}
}

// TestGenerateRejectsBadProcess checks that process validation runs
// before generation (including the replay case where RatePerSec is
// legitimately zero).
func TestGenerateRejectsBadProcess(t *testing.T) {
	sc := MultiAttNN()
	_, eval := buildSmall(t, sc)
	if _, err := Generate(sc, eval, GenConfig{
		Requests: 5, SLOMultiplier: 10, Seed: 1,
		Process: traffic.NewPoisson(0)}); err == nil {
		t.Fatal("invalid process accepted")
	}
}

// TestStreamClockSaturates: at 1e-9 req/s each gap fits a time.Duration
// but their sum passes 2^63 ns by the 20th request. The stream's clock
// saturates at the largest time.Duration, which the run refuses
// (sched.CheckArrival), so no arrival wraps negative or runs backwards:
// request 8 used to arrive at -2446461h34m59.869311844s.
func TestStreamClockSaturates(t *testing.T) {
	sc := MultiAttNN()
	_, eval := buildSmall(t, sc)
	reqs, err := Generate(sc, eval, GenConfig{Requests: 20, RatePerSec: 1e-9, SLOMultiplier: 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for _, r := range reqs {
		if r.Arrival < last {
			t.Fatalf("request %d arrives at %v, after an arrival at %v", r.ID, r.Arrival, last)
		}
		last = r.Arrival
	}
	if last != math.MaxInt64 {
		t.Errorf("last arrival %v, want the clock saturated at the largest time.Duration", last)
	}
}
