package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/traffic"
	"sparsedysta/internal/workload"
)

// This file is the live-serving subsystem's experiment layer: the
// arrival-process catalogue behind Options.Traffic, the SLO-derived
// autoscaling policy behind Options.Autoscale, and the cost-vs-goodput
// frontier experiment that compares fixed provisioning against scaling
// with the load. The question a serving operator asks: bursty traffic
// forces a choice between provisioning for the burst (fixed-max: best
// goodput, engines idle between bursts) and for the mean (fixed-min:
// cheap, drowns in every burst) — how much of the fixed-max goodput does
// an SLO-driven autoscaler keep while shedding idle capacity cost?

// TrafficModels lists the arrival-process names accepted by
// Options.Traffic (and the CLIs' -traffic flag).
var TrafficModels = []string{"poisson", "mmpp", "diurnal", "replay:PATH"}

// DefaultBurst is the mmpp burst-to-quiet rate ratio used when
// Options.Burst is 0.
const DefaultBurst = 8.0

const (
	// mmppBurstFrac is the long-run fraction of time the mmpp process
	// spends in its burst phase.
	mmppBurstFrac = 0.2
	// mmppBurstLen shapes the mean burst dwell: bursts long enough to
	// span ~20 mean inter-arrival times, so a burst floods queues rather
	// than blurring into Poisson jitter.
	mmppBurstLen = 20.0
	// diurnalAmplitude is the rate swing of the diurnal curve: peaks at
	// 1.7x the mean, troughs at 0.3x.
	diurnalAmplitude = 0.7
)

// replayPrefix marks a -traffic value that replays a recorded arrival
// trace from the file named after it.
const replayPrefix = "replay:"

// NewTraffic builds the arrival process named by Options.Traffic for a
// stream of `requests` at long-run mean rate `rate` req/s. "" returns
// nil, which workload.NewStream draws through traffic.NewPoisson, and
// "poisson" that process explicitly (byte-for-byte identical streams,
// pinned by test). The mmpp burst ratio comes from `burst` (0 =
// DefaultBurst); the diurnal period spans the expected stream (one
// day/night cycle per run).
func NewTraffic(name string, rate float64, requests int, burst float64) (traffic.Process, error) {
	switch {
	case name == "":
		return nil, nil
	case name == "poisson":
		return traffic.NewPoisson(rate), nil
	case name == "mmpp":
		if burst == 0 {
			burst = DefaultBurst
		}
		if !(burst >= 1 && burst < math.Inf(1)) {
			return nil, fmt.Errorf("exp: -burst %v not finite and at least 1 (mmpp bursts must raise the rate)", burst)
		}
		meanBurst, err := trafficSpan(name, rate, "mean burst", mmppBurstLen/rate)
		if err != nil {
			return nil, err
		}
		return traffic.Bursty(rate, burst, mmppBurstFrac, meanBurst), nil
	case name == "diurnal":
		period, err := trafficSpan(name, rate, "period", float64(requests)/rate)
		if err != nil {
			return nil, err
		}
		return &traffic.Diurnal{Base: rate, Amplitude: diurnalAmplitude, Period: period}, nil
	case strings.HasPrefix(name, replayPrefix):
		p, err := traffic.LoadReplay(strings.TrimPrefix(name, replayPrefix))
		if err != nil {
			return nil, fmt.Errorf("exp: -traffic %s: %w", name, err)
		}
		return p, nil
	}
	return nil, fmt.Errorf("exp: unknown -traffic model %q (valid: %v)", name, TrafficModels)
}

// trafficSpan converts a span of the named traffic model at rate req/s,
// sec seconds, to a time.Duration, refusing one that is not below 2^63
// ns, the largest time.Duration, which the conversion would wrap
// negative.
func trafficSpan(model string, rate float64, what string, sec float64) (time.Duration, error) {
	if ns := sec * float64(time.Second); ns < 1<<63 {
		return time.Duration(ns), nil
	}
	return 0, fmt.Errorf("exp: -traffic %s at rate %v req/s: %s of %.3gs is not below 2^63 ns, the largest time.Duration",
		model, rate, what, sec)
}

// recording reads a -traffic replay:PATH file once, for a whole grid;
// any other traffic model has none (nil).
func (o Options) recording() (*traffic.Replay, error) {
	if !strings.HasPrefix(o.Traffic, replayPrefix) {
		return nil, nil
	}
	proc, err := NewTraffic(o.Traffic, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	return proc.(*traffic.Replay), nil
}

// NewAutoscaler derives the SLO-driven engine-count policy for a request
// slice: the thresholds are proportional to the requests' mean SLO
// budget, so the same policy shape serves workloads whose service times
// differ by orders of magnitude (attnn vs cnn). Scale up when the mean
// predicted queueing delay eats a quarter of the budget — early enough
// that a burst is answered before violations spread — and back down only
// when it falls under a tenth, with a cooldown of a tenth of the budget
// (roughly a mean service time at the paper's M_slo = 10) between
// actions. An empty slice yields zero thresholds, which the cluster
// rejects when a run starts.
func NewAutoscaler(reqs []*workload.Request, min, max int, load func(*sched.Task) time.Duration) *cluster.Autoscaler {
	return autoscalerFrom(sched.NewSliceSource(reqs), min, max, load)
}

// autoscalerFrom is NewAutoscaler over a request source, drained in one
// pass: the SLOs are summed in the order the source yields them, so a
// stream and the slice Generate materializes from it give the same
// thresholds, in O(1) memory.
func autoscalerFrom(src sched.RequestSource, lo, hi int, load func(*sched.Task) time.Duration) *cluster.Autoscaler {
	var total time.Duration
	n := 0
	for r, ok := src.Next(); ok; r, ok = src.Next() {
		total += r.SLO
		n++
	}
	budget := total / time.Duration(max(n, 1)) // an empty source sums to 0
	return &cluster.Autoscaler{
		Min:      lo,
		Max:      hi,
		Up:       budget / 4,
		Down:     budget / 10,
		Cooldown: budget / 10,
		Load:     load,
	}
}

// Validate rejects inconsistent option combinations before any pipeline
// work starts. It is the CLI-facing check — flags that only make sense
// together fail loudly here instead of being silently ignored — and is
// deliberately NOT called by runCell: experiment sweeps build option
// blocks programmatically and own their own consistency. Every
// rejection names the flag it concerns.
func (o Options) Validate() error {
	switch {
	case o.Seeds < 1:
		return fmt.Errorf("exp: -seeds %d < 1", o.Seeds)
	case o.Requests < 1:
		return fmt.Errorf("exp: -requests %d < 1", o.Requests)
	case o.ProfileSamples < 1:
		return fmt.Errorf("exp: -profile-samples %d < 1", o.ProfileSamples)
	case o.EvalSamples < 1:
		return fmt.Errorf("exp: -eval-samples %d < 1", o.EvalSamples)
	case o.Workers < 0:
		return fmt.Errorf("exp: -workers %d is negative (0 = all cores)", o.Workers)
	}
	if _, err := o.schedOptions(); err != nil {
		return err
	}
	if err := o.checkPolicyNames(); err != nil {
		return err
	}
	// Half-configured migration would silently never run (interval 0 is
	// migration off, the library's bit-identity anchor; policy "none"
	// ignores every other knob): refuse in both directions rather than
	// report results that misleadingly look rebalanced.
	migrationOff := o.Rebalance == "" || o.Rebalance == "none"
	switch {
	case o.SignalInterval < 0:
		return fmt.Errorf("exp: -signal-interval %v is negative", o.SignalInterval)
	case o.RebalanceInterval < 0:
		return fmt.Errorf("exp: -rebalance-interval %v is negative", o.RebalanceInterval)
	case o.MigrationCost < 0:
		return fmt.Errorf("exp: -migration-cost %v is negative", o.MigrationCost)
	case o.MigrationBudget < 0:
		return fmt.Errorf("exp: -migration-budget %d is negative (0 = once-per-request rule only)", o.MigrationBudget)
	case !migrationOff && o.RebalanceInterval == 0:
		return fmt.Errorf("exp: -rebalance %s needs a positive -rebalance-interval (0 disables migration)", o.Rebalance)
	case migrationOff && (o.RebalanceInterval > 0 || o.MigrationCost > 0 || o.MigrationBudget > 0):
		return fmt.Errorf("exp: -rebalance-interval/-migration-cost/-migration-budget need -rebalance steal or shed")
	// Fault injection follows the same switch discipline: -churn arms it,
	// so an availability model or a retry cap without it would be dead
	// configuration.
	case o.RetryMax < 0:
		return fmt.Errorf("exp: -retry-max %d is negative (0 = unlimited)", o.RetryMax)
	case o.Churn && o.MTBF <= 0:
		return fmt.Errorf("exp: -churn needs a positive -mtbf (got %v)", o.MTBF)
	case o.Churn && o.MTTR <= 0:
		return fmt.Errorf("exp: -churn needs a positive -mttr (got %v)", o.MTTR)
	case !o.Churn && o.MTBF != 0:
		return fmt.Errorf("exp: -mtbf needs -churn")
	case !o.Churn && o.MTTR != 0:
		return fmt.Errorf("exp: -mttr needs -churn")
	case !o.Churn && o.RetryMax != 0:
		return fmt.Errorf("exp: -retry-max needs -churn")
	}
	if o.Burst != 0 && o.Traffic != "mmpp" {
		return fmt.Errorf("exp: -burst shapes the mmpp process (got -traffic %q)", o.Traffic)
	}
	if o.Traffic != "" {
		// A placeholder rate/length: the real ones arrive per operating
		// point. This catches unknown names, bad burst ratios, and
		// unreadable replay traces up front.
		if _, err := NewTraffic(o.Traffic, 1, 1, o.Burst); err != nil {
			return err
		}
	}
	s := o.Shape()
	switch {
	case !o.Autoscale && (o.ScaleMin != 0 || o.ScaleMax != 0):
		return fmt.Errorf("exp: -scale-min/-scale-max need -autoscale")
	case !o.Autoscale:
		return nil
	case s.ScaleMin < 1:
		return fmt.Errorf("exp: -scale-min %d < 1", s.ScaleMin)
	case s.ScaleMax < s.ScaleMin:
		return fmt.Errorf("exp: -scale-min %d exceeds -scale-max %d", s.ScaleMin, s.ScaleMax)
	case s.ScaleMax > s.Engines:
		return fmt.Errorf("exp: -scale-max %d exceeds the %d-engine cluster", s.ScaleMax, s.Engines)
	}
	return nil
}

// checkPolicyNames refuses an unknown -dispatch, -admission or
// -rebalance name. The policy constructors only capture their pipeline,
// so a zero one checks the names: Validate runs this before Phase 1
// builds the real one, and every grid once, before any cell, since a
// direct cell builds none of the policies and a bad name must not pass
// silently because the run has one engine.
func (o Options) checkPolicyNames() error {
	var zero Pipeline
	if _, err := NewDispatcher(o.Dispatch, &zero); err != nil {
		return err
	}
	if _, err := NewAdmission(o.Admission, &zero); err != nil {
		return err
	}
	_, err := NewRebalancer(o.Rebalance, &zero)
	return err
}

// autoscaleSignalInterval is the signal staleness every arm of the
// autoscale experiment routes (and the autoscaler decides) under: fresh
// enough to track bursts, stale enough that scaling decisions ride the
// same delayed metrics pipeline real routers have.
const autoscaleSignalInterval = 5 * time.Millisecond

// AutoscaleTraffic is the burstiness axis of the autoscale experiment:
// stationary Poisson, then mmpp at increasing burst-to-quiet ratios with
// the same long-run mean rate.
var AutoscaleTraffic = []struct {
	Name    string
	Traffic string
	Burst   float64
}{
	{"poisson", "poisson", 0},
	{"mmpp-4x", "mmpp", 4},
	{"mmpp-8x", "mmpp", 8},
}

// Autoscale is the cost-vs-goodput frontier experiment: Dysta behind
// sparsity-aware least-load dispatch at a mean rate of half the
// cluster's knee capacity, swept over traffic burstiness × provisioning
// policy. The fixed-max arm provisions for the burst (4 engines always
// on), the fixed-min arm for well under the mean (1 engine), and the
// autoscale arm scales 1..4 on the SLO-derived policy. The frontier
// property — the autoscaler holds nearly all of fixed-max's goodput at
// measurably fewer engine-seconds — is pinned by TestAutoscaleFrontier.
func Autoscale(opts Options) ([]Artifact, error) {
	const engines = 4
	const rate = 66.0 // half the 4-engine knee capacity (Fig. 15: ~33/engine)

	p, err := NewPipeline(workload.MultiAttNN(), opts, 7)
	if err != nil {
		return nil, err
	}
	dysta := dystaOnly()

	tbl := &Table{
		ID: "autoscale",
		Title: fmt.Sprintf("Dysta + load dispatch at %.0f req/s: provisioning policy vs traffic burstiness (%d-engine cluster)",
			rate, engines),
		Columns: []string{"traffic", "policy", "engines",
			"viol%", "goodput (inf/s)", "engine-s", "ups", "downs"},
		Notes: []string{
			"every traffic model has the same long-run mean rate; mmpp-Kx bursts at K times its quiet rate",
			"engine-s: provisioned capacity actually billed (in-service engine-time); fixed arms bill engines x makespan",
			fmt.Sprintf("autoscaler: scale up when mean predicted queueing delay > SLO/4, down below SLO/10 (signals refresh every %v)",
				autoscaleSignalInterval),
		},
	}
	xs := make([]float64, len(AutoscaleTraffic))
	for i := range AutoscaleTraffic {
		xs[i] = float64(i)
	}
	goodput := &Series{
		ID:     "autoscale",
		Title:  "goodput vs traffic burstiness (x = traffic index, see table)",
		XLabel: "traffic index",
		YLabel: "goodput (inf/s)",
		X:      xs,
		Lines:  map[string][]float64{},
		Order:  []string{"fixed-min", "fixed-max", "autoscale"},
	}
	cost := &Series{
		ID:     "autoscale-cost",
		Title:  "provisioned capacity billed vs traffic burstiness",
		XLabel: "traffic index",
		YLabel: "engine-seconds",
		X:      xs,
		Lines:  map[string][]float64{},
		Order:  []string{"fixed-min", "fixed-max", "autoscale"},
	}

	arms := []struct {
		name      string
		engines   int
		autoscale bool
	}{
		{"fixed-min", 1, false},
		{"fixed-max", engines, false},
		{"autoscale", engines, true},
	}
	for _, tr := range AutoscaleTraffic {
		for _, a := range arms {
			o := opts
			o.Engines = a.engines
			o.EngineSpecs = nil // the sweep pins its composition
			o.Dispatch = "load"
			o.SignalInterval = autoscaleSignalInterval
			o.Traffic = tr.Traffic
			o.Burst = tr.Burst
			o.Autoscale = a.autoscale
			if a.autoscale {
				o.ScaleMin, o.ScaleMax = 1, engines
			}
			rs, err := p.RunPoint(dysta, rate, 10, o)
			if err != nil {
				return nil, err
			}
			r := rs["Dysta"]
			engCell := fmt.Sprintf("%d", a.engines)
			if a.autoscale {
				engCell = fmt.Sprintf("%d..%d", o.ScaleMin, o.ScaleMax)
			}
			tbl.Rows = append(tbl.Rows, []string{
				tr.Name, a.name, engCell,
				fmt.Sprintf("%.1f", 100*r.ViolationRate),
				fmt.Sprintf("%.1f", r.Goodput),
				fmt.Sprintf("%.1f", r.EngineSeconds),
				fmt.Sprintf("%d", r.ScaleUps),
				fmt.Sprintf("%d", r.ScaleDowns),
			})
			goodput.Lines[a.name] = append(goodput.Lines[a.name], r.Goodput)
			cost.Lines[a.name] = append(cost.Lines[a.name], r.EngineSeconds)
		}
	}
	return []Artifact{tbl, goodput, cost}, nil
}
