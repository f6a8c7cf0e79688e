package traffic

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/rng"
)

// stream generates n arrivals from a fresh copy of the process.
func stream(t *testing.T, p Process, seed uint64, n int) []time.Duration {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	p.Reset()
	r := rng.New(seed)
	out := make([]time.Duration, n)
	var now time.Duration
	for i := range out {
		gap := p.Next(r, now)
		if gap < 0 {
			t.Fatalf("%s: negative gap %v at %d", p.Name(), gap, i)
		}
		now += gap
		out[i] = now
	}
	return out
}

// meanRate returns the empirical arrival rate of a stream.
func meanRate(arrivals []time.Duration) float64 {
	return float64(len(arrivals)) / arrivals[len(arrivals)-1].Seconds()
}

// TestPoissonMatchesInlineExp pins the extraction contract: Poisson.Next
// is the exact draw the pre-extraction workload.Generate loop performed,
// so the stream positions (and with them every later sampling draw) are
// unchanged.
func TestPoissonMatchesInlineExp(t *testing.T) {
	const rate = 30.0
	p := NewPoisson(rate)
	a, b := rng.New(7), rng.New(7)
	var now time.Duration
	for i := 0; i < 1000; i++ {
		got := p.Next(a, now)
		want := time.Duration(b.Exp(rate) * float64(time.Second))
		if got != want {
			t.Fatalf("draw %d: Poisson.Next = %v, inline loop = %v", i, got, want)
		}
		now += got
	}
	if au, bu := a.Uint64(), b.Uint64(); au != bu {
		t.Fatalf("stream positions diverged: %d vs %d", au, bu)
	}
}

// TestProcessDeterminism checks that every process replays its stream
// exactly after Reset, from the same source seed.
func TestProcessDeterminism(t *testing.T) {
	procs := []Process{
		NewPoisson(30),
		Bursty(30, 8, 0.2, 500*time.Millisecond),
		&Diurnal{Base: 30, Amplitude: 0.7, Period: 10 * time.Second},
		&Schedule{Base: 30, Steps: []ScheduleStep{{Dur: time.Second, Scale: 1}, {Dur: 500 * time.Millisecond, Scale: 3}}},
		NewReplay("synthetic", []time.Duration{time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond}),
	}
	for _, p := range procs {
		first := stream(t, p, 11, 500)
		second := stream(t, p, 11, 500)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: stream not reproducible after Reset", p.Name())
		}
	}
}

// TestBurstyMeanRate checks the Bursty parameterization: the long-run
// empirical rate stays near the nominal mean even though the
// instantaneous rate alternates between quiet and burst extremes.
func TestBurstyMeanRate(t *testing.T) {
	const mean = 50.0
	p := Bursty(mean, 8, 0.2, 500*time.Millisecond)
	arrivals := stream(t, p, 3, 60000)
	if got := meanRate(arrivals); math.Abs(got-mean)/mean > 0.08 {
		t.Fatalf("empirical rate %.2f, want ~%.2f", got, mean)
	}
	if p.BurstRate <= p.QuietRate {
		t.Fatalf("burst rate %v not above quiet rate %v", p.BurstRate, p.QuietRate)
	}
}

// TestMMPPBurstierThanPoisson checks that MMPP arrivals are actually
// burstier: the coefficient of variation of the gaps must exceed the
// exponential's 1.
func TestMMPPBurstierThanPoisson(t *testing.T) {
	p := Bursty(50, 8, 0.2, 500*time.Millisecond)
	arrivals := stream(t, p, 5, 20000)
	var sum, sumSq float64
	prev := time.Duration(0)
	for _, at := range arrivals {
		g := (at - prev).Seconds()
		sum += g
		sumSq += g * g
		prev = at
	}
	n := float64(len(arrivals))
	meanGap := sum / n
	cv := math.Sqrt(sumSq/n-meanGap*meanGap) / meanGap
	if cv < 1.2 {
		t.Fatalf("gap coefficient of variation %.2f, want > 1.2 (Poisson is 1.0)", cv)
	}
}

// TestDiurnalMeanRate checks that thinning preserves the base rate over
// whole periods and that arrivals concentrate in the high-rate half.
func TestDiurnalMeanRate(t *testing.T) {
	const base = 40.0
	period := 10 * time.Second
	p := &Diurnal{Base: base, Amplitude: 0.7, Period: period}
	arrivals := stream(t, p, 9, 40000)
	// Truncate to whole periods so the sinusoid integrates to zero.
	whole := arrivals[:0:0]
	last := arrivals[len(arrivals)-1] / period * period
	for _, at := range arrivals {
		if at < last {
			whole = append(whole, at)
		}
	}
	got := float64(len(whole)) / last.Seconds()
	if math.Abs(got-base)/base > 0.05 {
		t.Fatalf("empirical rate %.2f, want ~%.2f", got, base)
	}
	// First half of each period (sin > 0) must carry more arrivals.
	var high int
	for _, at := range whole {
		if at%period < period/2 {
			high++
		}
	}
	if frac := float64(high) / float64(len(whole)); frac < 0.6 {
		t.Fatalf("high-rate half carries %.0f%% of arrivals, want > 60%%", 100*frac)
	}
}

// TestScheduleRates pins the piecewise curve: rate lookup inside each
// segment, cyclic repetition, and the peak used for thinning.
func TestScheduleRates(t *testing.T) {
	s := &Schedule{Base: 10, Steps: []ScheduleStep{
		{Dur: 2 * time.Second, Scale: 1},
		{Dur: time.Second, Scale: 4},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 10},
		{1900 * time.Millisecond, 10},
		{2 * time.Second, 40},
		{2900 * time.Millisecond, 40},
		{3 * time.Second, 10}, // wrapped into the next cycle
		{5 * time.Second, 40},
	}
	for _, c := range cases {
		if got := s.rateAt(c.at); got != c.want {
			t.Errorf("rateAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if got := s.peak(); got != 40 {
		t.Errorf("peak = %v, want 40", got)
	}
}

// TestReplayCycles checks gap reconstruction from arrivals and cycling
// past the end of the recording.
func TestReplayCycles(t *testing.T) {
	rec := []time.Duration{2 * time.Millisecond, 5 * time.Millisecond, 6 * time.Millisecond}
	p := NewReplay("synthetic", rec)
	arrivals := stream(t, p, 1, 7)
	want := []time.Duration{
		2 * time.Millisecond, 5 * time.Millisecond, 6 * time.Millisecond,
		8 * time.Millisecond, 11 * time.Millisecond, 12 * time.Millisecond,
		14 * time.Millisecond,
	}
	if !reflect.DeepEqual(arrivals, want) {
		t.Fatalf("replayed arrivals %v, want %v", arrivals, want)
	}
}

// TestArrivalsCSVRoundTrip checks Write -> Read identity.
func TestArrivalsCSVRoundTrip(t *testing.T) {
	arrivals := stream(t, NewPoisson(100), 4, 50)
	var buf bytes.Buffer
	if err := WriteArrivalsCSV(&buf, arrivals); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArrivalsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, arrivals) {
		t.Fatalf("round trip changed arrivals")
	}
	// A replay of the round-tripped recording regenerates the stream.
	replayed := stream(t, NewReplay("rt", got), 1, len(arrivals))
	if !reflect.DeepEqual(replayed, arrivals) {
		t.Fatalf("replay of round-tripped recording diverged")
	}
}

// malformedArrivals are arrival CSVs ReadArrivalsCSV must refuse, by
// what is wrong with each.
var malformedArrivals = map[string]string{
	"wrong header":    "request,arrival\n0,5\n",
	"no rows":         "request,arrival_ns\n",
	"bad index":       "request,arrival_ns\nx,5\n",
	"index gap":       "request,arrival_ns\n0,5\n2,9\n",
	"bad arrival":     "request,arrival_ns\n0,zzz\n",
	"negative":        "request,arrival_ns\n0,-5\n",
	"decreasing":      "request,arrival_ns\n0,9\n1,5\n",
	"too many fields": "request,arrival_ns\n0,5,7\n",
}

// TestArrivalsCSVRejectsMalformed maps malformed inputs to errors.
func TestArrivalsCSVRejectsMalformed(t *testing.T) {
	for name, in := range malformedArrivals {
		if _, err := ReadArrivalsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidateRejectsBadConfigs maps invalid process parameters to
// errors before generation starts.
func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := map[string]Process{
		"poisson zero rate":  NewPoisson(0),
		"mmpp zero quiet":    &MMPP{QuietRate: 0, BurstRate: 10, MeanQuiet: time.Second, MeanBurst: time.Second},
		"mmpp zero dwell":    &MMPP{QuietRate: 5, BurstRate: 10, MeanQuiet: 0, MeanBurst: time.Second},
		"diurnal amp 1":      &Diurnal{Base: 10, Amplitude: 1, Period: time.Second},
		"diurnal neg amp":    &Diurnal{Base: 10, Amplitude: -0.1, Period: time.Second},
		"diurnal zero base":  &Diurnal{Base: 0, Amplitude: 0.5, Period: time.Second},
		"diurnal no period":  &Diurnal{Base: 10, Amplitude: 0.5},
		"schedule no steps":  &Schedule{Base: 10},
		"schedule zero dur":  &Schedule{Base: 10, Steps: []ScheduleStep{{Dur: 0, Scale: 1}}},
		"schedule neg scale": &Schedule{Base: 10, Steps: []ScheduleStep{{Dur: time.Second, Scale: -1}}},
		"poisson NaN rate":   NewPoisson(math.NaN()),
		"poisson inf rate":   NewPoisson(math.Inf(1)),
		"mmpp NaN burst":     &MMPP{QuietRate: 5, BurstRate: math.NaN(), MeanQuiet: time.Second, MeanBurst: time.Second},
		"mmpp inf quiet":     &MMPP{QuietRate: math.Inf(1), BurstRate: 10, MeanQuiet: time.Second, MeanBurst: time.Second},
		"diurnal NaN base":   &Diurnal{Base: math.NaN(), Amplitude: 0.5, Period: time.Second},
		"diurnal NaN amp":    &Diurnal{Base: 10, Amplitude: math.NaN(), Period: time.Second},
		"diurnal NaN phase":  &Diurnal{Base: 10, Amplitude: 0.5, Period: time.Second, Phase: math.NaN()},
		"schedule NaN base":  &Schedule{Base: math.NaN(), Steps: []ScheduleStep{{Dur: time.Second, Scale: 1}}},
		"schedule NaN scale": &Schedule{Base: 10, Steps: []ScheduleStep{{Dur: time.Second, Scale: math.NaN()}}},
		"replay empty":       &Replay{Source: "x"},
		"replay negative":    &Replay{Source: "x", Gaps: []time.Duration{-time.Millisecond}},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestClockSaturatesPastDuration: no span or arrival wraps past 2^63 ns,
// the largest time.Duration, to a negative duration. A poisson rate
// whose mean gap is past it fails Validate naming the rate; an mmpp
// quiet dwell past it saturates there; and an mmpp and a diurnal
// process whose clock passes it draw non-negative gaps while the clock
// stops at math.MaxInt64, where each used to wrap negative.
func TestClockSaturatesPastDuration(t *testing.T) {
	for _, c := range []struct{ now, gap, want time.Duration }{
		{time.Second, 2 * time.Second, 3 * time.Second},
		{math.MaxInt64 - time.Second, time.Second, math.MaxInt64},
		{math.MaxInt64 - time.Second, 2 * time.Second, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64, math.MaxInt64},
	} {
		if got := Advance(c.now, c.gap); got != c.want {
			t.Errorf("Advance(%v, %v) = %v, want %v", c.now, c.gap, got, c.want)
		}
	}
	for _, rate := range []float64{1e-300, 1e-10} {
		err := NewPoisson(rate).Validate()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("rate %v req/s", rate)) {
			t.Errorf("poisson at %v req/s: error %v, want one naming the rate", rate, err)
		}
	}
	if err := NewPoisson(1e-9).Validate(); err != nil {
		t.Errorf("a mean gap of 1e9 s is below 2^63 ns: %v", err)
	}
	mmpp := Bursty(1e-9, 8, 0.2, math.MaxInt64/2)
	if mmpp.MeanQuiet != math.MaxInt64 {
		t.Errorf("a quiet dwell four times MaxInt64/2 ns is %v, want the largest time.Duration", mmpp.MeanQuiet)
	}
	for _, p := range []Process{mmpp, &Diurnal{Base: 1e-9, Amplitude: 0.7, Period: time.Hour}} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		p.Reset()
		r := rng.New(1)
		var now time.Duration
		for i := 0; i < 40; i++ {
			gap := p.Next(r, now)
			if gap < 0 {
				t.Fatalf("%s: gap %v at arrival %d", p.Name(), gap, i)
			}
			now = Advance(now, gap)
		}
		if now != math.MaxInt64 {
			t.Errorf("%s: clock at %v after 40 arrivals at ~1e-9 req/s, want it saturated", p.Name(), now)
		}
	}
}
