// Package traffic provides the deterministic arrival processes behind
// workload generation: stationary Poisson (the MLPerf-server default the
// paper evaluates under), Markov-modulated Poisson bursts, diurnal rate
// curves, and replay of recorded arrival traces.
//
// Determinism contract: a Process draws every deviate it needs inline
// from the *rng.Source passed to Next, in a fixed order, and keeps no
// hidden randomness of its own. Generation therefore consumes the
// workload seed's stream exactly as the pre-extraction Poisson loop did
// — Poisson.Next performs the identical single Exp draw, so
// traffic=poisson reproduces historical arrival streams byte-for-byte —
// and a stateful process (MMPP phase, replay cursor, thinning clock) is
// returned to its initial state by Reset, so one instance can drive
// several runs reproducibly. Rate-modulated processes (Diurnal,
// Schedule) use Lewis-Shedler thinning: candidate gaps are drawn at the
// peak rate and accepted with probability rate(t)/peak, two draws per
// candidate, which keeps the stream position a deterministic function of
// the accepted arrivals alone.
package traffic

import (
	"fmt"
	"math"
	"time"

	"sparsedysta/internal/rng"
)

// Process generates request inter-arrival gaps. Implementations must be
// deterministic: the same Source state and arrival clock always produce
// the same gap, with all randomness drawn from r in a fixed order.
type Process interface {
	// Name identifies the process in results and experiment tables.
	Name() string
	// Validate reports a configuration error before generation starts.
	Validate() error
	// Reset returns the process to its initial state (phase, cursor,
	// thinning clock) without consuming randomness, so the next stream
	// starts from scratch.
	Reset()
	// Next returns the gap from the arrival at now to the next arrival,
	// drawing every deviate it needs from r.
	Next(r *rng.Source, now time.Duration) time.Duration
}

// expGap draws one exponential inter-arrival gap at rate arrivals/s —
// the single draw the historical workload.Generate loop performed. A gap
// past the largest time.Duration saturates there, math.MaxInt64, where
// the conversion would wrap it negative.
func expGap(r *rng.Source, rate float64) time.Duration {
	return nanos(r.Exp(rate) * float64(time.Second))
}

// nanos converts a non-negative span in nanoseconds to a time.Duration,
// saturating at math.MaxInt64 past 2^63 ns.
func nanos(ns float64) time.Duration {
	if ns < 1<<63 {
		return time.Duration(ns)
	}
	return math.MaxInt64
}

// Advance returns the arrival clock now moved on by a gap, which is
// never negative, saturating at the largest time.Duration, math.MaxInt64,
// where the sum would wrap negative. A consumer refuses an arrival there
// (sched.CheckArrival), so a stream too slow for the clock fails its run
// instead of running backwards.
func Advance(now, gap time.Duration) time.Duration {
	if gap > 0 && now > math.MaxInt64-gap {
		return math.MaxInt64
	}
	return now + gap
}

// Poisson is the stationary Poisson process: independent exponential
// gaps at a constant rate. This is the process extracted from
// workload.Generate, bit-identical to the pre-extraction loop under the
// same seed.
type Poisson struct {
	// Rate is the arrival rate in requests per second.
	Rate float64
}

// NewPoisson returns a stationary Poisson process at rate arrivals/s.
func NewPoisson(rate float64) *Poisson { return &Poisson{Rate: rate} }

// Name implements Process.
func (*Poisson) Name() string { return "poisson" }

// positiveFinite reports whether x is positive and finite (NaN is not).
func positiveFinite(x float64) bool { return x > 0 && x < math.Inf(1) }

// Validate implements Process. A rate whose mean gap, 1/Rate seconds, is
// not below 2^63 ns, the largest time.Duration, is refused too: most of
// its gaps would saturate there.
func (p *Poisson) Validate() error {
	if !positiveFinite(p.Rate) {
		return fmt.Errorf("traffic: poisson rate %v not positive and finite", p.Rate)
	}
	if gap := 1 / p.Rate; !(gap*float64(time.Second) < 1<<63) {
		return fmt.Errorf("traffic: poisson rate %v req/s has a mean gap of %.3gs, not below 2^63 ns, the largest time.Duration",
			p.Rate, gap)
	}
	return nil
}

// Reset implements Process (Poisson is memoryless; nothing to reset).
func (*Poisson) Reset() {}

// Next implements Process.
func (p *Poisson) Next(r *rng.Source, _ time.Duration) time.Duration {
	return expGap(r, p.Rate)
}

// MMPP is a two-phase Markov-modulated Poisson process: arrivals follow
// a Poisson process whose rate switches between a quiet and a burst
// phase, with exponentially distributed phase dwell times. The classic
// minimal model of bursty serving traffic: the long-run mean rate is
//
//	(QuietRate*MeanQuiet + BurstRate*MeanBurst) / (MeanQuiet + MeanBurst)
//
// while the instantaneous rate is always one of the two extremes.
type MMPP struct {
	// QuietRate and BurstRate are the per-phase arrival rates in
	// requests per second (BurstRate > QuietRate for a bursty process,
	// though the model does not require it).
	QuietRate, BurstRate float64
	// MeanQuiet and MeanBurst are the mean phase dwell times.
	MeanQuiet, MeanBurst time.Duration

	// Phase state: the process starts in the quiet phase with the dwell
	// drawn lazily on the first Next, so that construction and Reset
	// consume no randomness.
	burst    bool
	started  bool
	phaseEnd time.Duration
}

// Bursty returns an MMPP with the given long-run mean rate and
// burst-to-quiet rate ratio, spending burstFrac of the time in bursts of
// mean length meanBurst. Solving the mean-rate identity for the quiet
// rate: quiet = mean / (1 - burstFrac + burstFrac*burst).
func Bursty(mean, burst, burstFrac float64, meanBurst time.Duration) *MMPP {
	quiet := mean / (1 - burstFrac + burstFrac*burst)
	var meanQuiet time.Duration
	if burstFrac > 0 {
		meanQuiet = nanos(float64(meanBurst) * (1 - burstFrac) / burstFrac)
	}
	return &MMPP{
		QuietRate: quiet,
		BurstRate: quiet * burst,
		MeanQuiet: meanQuiet,
		MeanBurst: meanBurst,
	}
}

// Name implements Process.
func (*MMPP) Name() string { return "mmpp" }

// Validate implements Process.
func (m *MMPP) Validate() error {
	if !positiveFinite(m.QuietRate) || !positiveFinite(m.BurstRate) {
		return fmt.Errorf("traffic: mmpp rates not positive and finite (quiet %v, burst %v)", m.QuietRate, m.BurstRate)
	}
	if m.MeanQuiet <= 0 || m.MeanBurst <= 0 {
		return fmt.Errorf("traffic: non-positive mmpp dwell times (quiet %v, burst %v)", m.MeanQuiet, m.MeanBurst)
	}
	return nil
}

// Reset implements Process: back to the quiet phase with no dwell drawn.
func (m *MMPP) Reset() {
	m.burst = false
	m.started = false
	m.phaseEnd = 0
}

// rate returns the arrival rate of the current phase.
func (m *MMPP) rate() float64 {
	if m.burst {
		return m.BurstRate
	}
	return m.QuietRate
}

// dwell returns the mean dwell time of the current phase.
func (m *MMPP) dwell() time.Duration {
	if m.burst {
		return m.MeanBurst
	}
	return m.MeanQuiet
}

// Next implements Process by competing exponentials: a candidate arrival
// gap at the current phase's rate races the end of the phase. A
// candidate landing past the phase boundary is discarded — the Poisson
// process is memoryless, so redrawing from the boundary is exact, not an
// approximation — the phase toggles, and a fresh dwell is drawn. A phase
// whose end saturates at the largest time.Duration never ends.
func (m *MMPP) Next(r *rng.Source, now time.Duration) time.Duration {
	t := now
	if !m.started {
		m.started = true
		m.phaseEnd = Advance(t, expGap(r, 1/m.dwell().Seconds()))
	}
	for {
		if gap := expGap(r, m.rate()); gap <= m.phaseEnd-t || m.phaseEnd == math.MaxInt64 {
			return Advance(t, gap) - now
		}
		t = m.phaseEnd
		m.burst = !m.burst
		m.phaseEnd = Advance(t, expGap(r, 1/m.dwell().Seconds()))
	}
}

// rateCurve is a time-varying arrival-rate function with a known peak,
// shared by the thinned (Lewis-Shedler) processes.
type rateCurve interface {
	rateAt(t time.Duration) float64
	peak() float64
}

// nextThinned draws the next arrival of an inhomogeneous Poisson process
// by thinning: candidates arrive at the peak rate and are accepted with
// probability rateAt(t)/peak. Two draws per candidate, deterministic in
// the accepted stream.
func nextThinned(r *rng.Source, c rateCurve, now time.Duration) time.Duration {
	peak := c.peak()
	t := now
	for {
		t = Advance(t, expGap(r, peak))
		if r.Float64()*peak <= c.rateAt(t) {
			return t - now
		}
	}
}

// Diurnal is a sinusoidal rate curve: the classic day/night load cycle,
//
//	rate(t) = Base * (1 + Amplitude*sin(2*pi*t/Period + Phase))
//
// so the long-run mean rate over whole periods is Base and the peak is
// Base*(1+Amplitude).
type Diurnal struct {
	// Base is the mean arrival rate in requests per second.
	Base float64
	// Amplitude in [0, 1) scales the swing around Base.
	Amplitude float64
	// Period is the length of one cycle of virtual time.
	Period time.Duration
	// Phase offsets the cycle in radians (0 starts at the mean, rising).
	Phase float64
}

// Name implements Process.
func (*Diurnal) Name() string { return "diurnal" }

// Validate implements Process.
func (d *Diurnal) Validate() error {
	if !positiveFinite(d.Base) {
		return fmt.Errorf("traffic: diurnal base rate %v not positive and finite", d.Base)
	}
	if !(d.Amplitude >= 0 && d.Amplitude < 1) {
		return fmt.Errorf("traffic: diurnal amplitude %v outside [0, 1)", d.Amplitude)
	}
	if math.IsInf(d.Phase, 0) || math.IsNaN(d.Phase) {
		return fmt.Errorf("traffic: diurnal phase %v not finite", d.Phase)
	}
	if d.Period <= 0 {
		return fmt.Errorf("traffic: non-positive diurnal period %v", d.Period)
	}
	return nil
}

// Reset implements Process (the curve is a pure function of the clock).
func (*Diurnal) Reset() {}

func (d *Diurnal) rateAt(t time.Duration) float64 {
	return d.Base * (1 + d.Amplitude*math.Sin(2*math.Pi*t.Seconds()/d.Period.Seconds()+d.Phase))
}

func (d *Diurnal) peak() float64 { return d.Base * (1 + d.Amplitude) }

// Next implements Process via thinning against the peak rate.
func (d *Diurnal) Next(r *rng.Source, now time.Duration) time.Duration {
	return nextThinned(r, d, now)
}

// ScheduleStep is one segment of a piecewise rate schedule.
type ScheduleStep struct {
	// Dur is the segment length.
	Dur time.Duration
	// Scale multiplies the schedule's base rate during the segment.
	Scale float64
}

// Schedule is a piecewise-constant rate curve: the segments repeat
// cyclically, each scaling the base rate — an operator-legible
// alternative to the sinusoid (e.g. "2x for 30s every 5min").
type Schedule struct {
	// Base is the rate in requests per second that Scale multiplies.
	Base float64
	// Steps are the repeating segments, in order.
	Steps []ScheduleStep
}

// Name implements Process.
func (*Schedule) Name() string { return "schedule" }

// Validate implements Process.
func (s *Schedule) Validate() error {
	if !positiveFinite(s.Base) {
		return fmt.Errorf("traffic: schedule base rate %v not positive and finite", s.Base)
	}
	if len(s.Steps) == 0 {
		return fmt.Errorf("traffic: schedule has no steps")
	}
	for i, st := range s.Steps {
		if st.Dur <= 0 {
			return fmt.Errorf("traffic: schedule step %d has non-positive duration %v", i, st.Dur)
		}
		if !positiveFinite(st.Scale) {
			return fmt.Errorf("traffic: schedule step %d scale %v not positive and finite", i, st.Scale)
		}
	}
	return nil
}

// Reset implements Process (the curve is a pure function of the clock).
func (*Schedule) Reset() {}

func (s *Schedule) total() time.Duration {
	var total time.Duration
	for _, st := range s.Steps {
		total += st.Dur
	}
	return total
}

func (s *Schedule) rateAt(t time.Duration) float64 {
	t %= s.total()
	for _, st := range s.Steps {
		if t < st.Dur {
			return s.Base * st.Scale
		}
		t -= st.Dur
	}
	return s.Base * s.Steps[len(s.Steps)-1].Scale
}

func (s *Schedule) peak() float64 {
	max := s.Steps[0].Scale
	for _, st := range s.Steps[1:] {
		if st.Scale > max {
			max = st.Scale
		}
	}
	return s.Base * max
}

// Next implements Process via thinning against the peak rate.
func (s *Schedule) Next(r *rng.Source, now time.Duration) time.Duration {
	return nextThinned(r, s, now)
}
