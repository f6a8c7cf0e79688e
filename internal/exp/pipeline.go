package exp

import (
	"cmp"
	"fmt"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// Options sizes an experiment run. DefaultOptions reproduces the paper's
// protocol; QuickOptions shrinks everything for benchmarks and CI.
type Options struct {
	// Seeds is the number of random seeds averaged per data point (the
	// paper uses 5, §6.1).
	Seeds int
	// Requests is the stream length per run (the paper uses 1000).
	Requests int
	// ProfileSamples sizes the offline profiling set per model-pattern
	// pair; EvalSamples sizes the evaluation trace pool.
	ProfileSamples, EvalSamples int
	// DatasetSamples sizes the profiling experiments (Figs. 2-4, 9,
	// Tables 2 and 4).
	DatasetSamples int
	// Workers bounds the worker pool of the parallel grid runner
	// (RunGrid/RunPoint). 0 means GOMAXPROCS; 1 forces sequential
	// execution. Results are bit-identical for any value.
	Workers int
	// Engines is the number of simulated accelerators per run. 0 or 1
	// uses the single-engine sched.RunStream path; larger values route
	// the request stream through internal/cluster behind the Dispatch
	// policy.
	Engines int
	// Dispatch names the cluster dispatch policy for Engines > 1:
	// "rr" (round-robin, the default), "jsq" (join-shortest-queue),
	// "load" (sparsity-aware least-predicted-load via the Dysta LUT), or
	// "blind-load" (least-predicted-load on the pattern-blind estimator).
	Dispatch string
	// EngineSpecs configures a heterogeneous cluster (one entry per
	// engine, see ParseEngines for the CLI syntax). Non-empty overrides
	// Engines and always routes runs through the cluster.
	EngineSpecs []cluster.EngineSpec
	// SignalInterval bounds the staleness of the dispatcher-visible
	// engine signals (cluster runs): snapshots refresh only when an
	// arrival is at least this much virtual time past the last refresh.
	// 0 is the idealized exact-state router.
	SignalInterval time.Duration
	// Admission names the dispatch-layer admission policy: "" or "none"
	// (admit everything), "queue-cap[:N]" (shed when every engine holds
	// >= N outstanding requests, default 16), or "slo" (shed requests
	// predicted to miss their SLO on every engine). Setting it (like
	// setting SignalInterval) routes even single-engine runs through the
	// cluster dispatch layer so the policy always applies.
	Admission string
	// Rebalance names the migration policy moving queued-but-never-
	// started requests between engines: "" or "none" (no migration),
	// "steal" (idle engines pull from the longest normalized backlog),
	// or "shed" (engines push requests predicted to miss their SLO to
	// whoever can still save them). Setting it routes runs through the
	// cluster layer; migration only activates with a positive
	// RebalanceInterval.
	Rebalance string
	// RebalanceInterval is the minimum virtual time between rebalance
	// rounds. 0 disables migration — bit-identical to no rebalancer.
	RebalanceInterval time.Duration
	// MigrationCost is the per-request latency penalty of a migration,
	// in reference-hardware units (a moved request becomes schedulable
	// on its new engine only after the rebalance instant plus this).
	MigrationCost time.Duration
	// MigrationBudget caps total migrations per run (0 = no cap beyond
	// the built-in once-per-request rule).
	MigrationBudget int
	// Churn enables deterministic fault injection: every engine
	// alternates exponential up/down phases (mean MTBF / MTTR), with the
	// whole fail/recover schedule derived per cell from the seed index,
	// so results stay bit-identical across -workers. Setting it routes
	// runs through the cluster layer even on one engine.
	Churn bool
	// MTBF and MTTR are the mean time between failures and mean time to
	// repair of the churn generator, in virtual time. Both must be
	// positive when Churn is set.
	MTBF, MTTR time.Duration
	// RetryMax caps restart-from-zero retries per request after a
	// failure destroys its partial execution; past the cap the request
	// is counted as LostWork. 0 means retry without limit.
	RetryMax int
	// Traffic names the arrival process: "" or "poisson" (stationary
	// Poisson; workload.NewStream draws "" through traffic.NewPoisson, so
	// the two give byte-for-byte identical streams), "mmpp"
	// (two-phase Markov-modulated bursts, shaped by Burst), "diurnal"
	// (sinusoidal rate curve, one cycle per stream), or "replay:PATH"
	// (arrival instants from a recorded CSV trace).
	Traffic string
	// Burst is the burst-to-quiet rate ratio of the mmpp process; 0
	// means the default of 8.
	Burst float64
	// Autoscale enables the SLO-driven engine-count policy: the live
	// set scales between ScaleMin and ScaleMax by draining and
	// re-joining engines at signal-refresh instants. Setting it routes
	// runs through the cluster layer.
	Autoscale bool
	// ScaleMin and ScaleMax bound the autoscaler's live engine count.
	// 0 means Min 1 and Max = the cluster size.
	ScaleMin, ScaleMax int
	// Capture selects the engine's result-capture mode: "" or "full"
	// retains the latencies for exact percentiles; "bounded" keeps
	// constant-size state instead (sched.Options.BoundedCapture —
	// identical metrics except the percentiles, which move to a
	// ~3%-error histogram). Every cell streams its arrivals from
	// workload.NewStream, so with "bounded" a run's memory does not grow
	// with Requests.
	Capture string
}

// schedOptions resolves the per-engine sched.Options the cell runner
// derives from the experiment options, rejecting unknown capture modes.
func (o Options) schedOptions() (sched.Options, error) {
	var s sched.Options
	switch o.Capture {
	case "", "full":
	case "bounded":
		s.BoundedCapture = true
	default:
		return s, fmt.Errorf("exp: unknown -capture mode %q (valid: full, bounded)", o.Capture)
	}
	return s, nil
}

// ClusterShape is the engine layout a run resolves to. runCell routes by
// it, Validate checks the autoscaler bounds against it and dysta-sim
// describes the run from it, so the three cannot disagree.
type ClusterShape struct {
	// Clustered reports whether runs go through the cluster dispatch
	// layer: more than one engine, an explicit (possibly heterogeneous)
	// spec, a stale signal board, an admission or migration policy,
	// churn, or autoscaling. A 1-engine cluster is bit-identical to the
	// direct path at neutral knob settings, so admission on a single
	// accelerator still works.
	Clustered bool
	// Engines is the cluster size (len(EngineSpecs) when set, else
	// Engines, at least 1); ScaleMin and ScaleMax are the autoscaler
	// bounds with their defaults, 1 and the cluster size, resolved.
	Engines, ScaleMin, ScaleMax int
}

// Shape resolves the options' cluster layout.
func (o Options) Shape() ClusterShape {
	n := max(o.Engines, 1)
	if len(o.EngineSpecs) > 0 {
		n = len(o.EngineSpecs)
	}
	return ClusterShape{
		Clustered: n > 1 || len(o.EngineSpecs) > 0 ||
			o.SignalInterval > 0 || (o.Admission != "" && o.Admission != "none") ||
			(o.Rebalance != "" && o.Rebalance != "none") || o.Churn || o.Autoscale,
		Engines:  n,
		ScaleMin: cmp.Or(o.ScaleMin, 1),
		ScaleMax: cmp.Or(o.ScaleMax, n),
	}
}

// DefaultOptions returns the paper-scale protocol.
func DefaultOptions() Options {
	return Options{
		Seeds:          5,
		Requests:       1000,
		ProfileSamples: 100,
		EvalSamples:    400,
		DatasetSamples: 2000,
	}
}

// QuickOptions returns a reduced protocol for fast regeneration.
func QuickOptions() Options {
	return Options{
		Seeds:          2,
		Requests:       300,
		ProfileSamples: 40,
		EvalSamples:    150,
		DatasetSamples: 500,
	}
}

// Pipeline bundles the Phase 1 outputs for one scenario: trace stores, the
// profiling LUT and the baseline estimator.
type Pipeline struct {
	Scenario workload.Scenario
	Prof     *trace.Store
	Eval     *trace.Store
	LUT      *trace.StatsSet
	Est      *sched.Estimator
}

// NewPipeline runs Phase 1 for the scenario.
func NewPipeline(sc workload.Scenario, opts Options, seed uint64) (*Pipeline, error) {
	prof, eval, err := workload.BuildStores(sc, opts.ProfileSamples, opts.EvalSamples, seed)
	if err != nil {
		return nil, err
	}
	lut, err := trace.NewStatsSet(prof)
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		Scenario: sc,
		Prof:     prof,
		Eval:     eval,
		LUT:      lut,
		Est:      sched.NewEstimator(lut),
	}, nil
}

// SchedSpec names a scheduler and constructs a new instance of it. A
// grid worker calls New for a spec's first direct cell and reruns the
// scheduler a cell emptied, if it is a sched.TaskExtractor, for the
// spec's next one (see gridWorker.run); a cluster cell calls New for
// each of its engines.
type SchedSpec struct {
	Name string
	New  func(p *Pipeline) sched.Scheduler
}

// StandardScheds returns the paper's Table 5 scheduler lineup.
func StandardScheds() []SchedSpec {
	return []SchedSpec{
		{"FCFS", func(p *Pipeline) sched.Scheduler { return sched.NewFCFS() }},
		{"SJF", func(p *Pipeline) sched.Scheduler { return sched.NewSJF(p.Est) }},
		{"SDRM3", func(p *Pipeline) sched.Scheduler { return sched.NewSDRM3(p.Est) }},
		{"PREMA", func(p *Pipeline) sched.Scheduler { return sched.NewPREMA(p.Est) }},
		{"Planaria", func(p *Pipeline) sched.Scheduler { return sched.NewPlanaria(p.Est) }},
		{"Dysta", func(p *Pipeline) sched.Scheduler { return core.NewDefault(p.LUT) }},
	}
}

// WithOracle appends the Oracle upper bound (used by the sweep figures).
func WithOracle(specs []SchedSpec) []SchedSpec {
	return append(specs, SchedSpec{"Oracle", func(p *Pipeline) sched.Scheduler { return core.NewOracle(p.LUT) }})
}

// AttNNRates and CNNRates are the paper's operating points (§6.2, §6.4).
var (
	AttNNRates = []float64{30, 40}
	CNNRates   = []float64{3, 4}
)
