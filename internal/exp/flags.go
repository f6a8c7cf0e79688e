package exp

import (
	"flag"
	"strconv"
	"time"
)

// RegisterFlags declares on fs the serving flags both CLIs share, each
// bound to its Options field. A flag's default is the field's value when
// RegisterFlags is called, except -mtbf and -mttr: their defaults (1s and
// 100ms) reach MTBF and MTTR only under -churn, while an explicit value
// always does, so Validate rejects one given without -churn. README's
// "Cluster flags" table documents every flag declared here.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.Workers, "workers", o.Workers, "parallel simulation workers (0 = all cores, 1 = sequential)")
	engines := &enginesFlag{o: o}
	if o.Engines > 0 {
		engines.text = strconv.Itoa(o.Engines)
	}
	fs.Var(engines, "engines", "simulated accelerators: a count (\"4\") or a heterogeneous mix (\"2x1,2x2\" = 2 reference-speed + 2 half-speed), at most "+
		strconv.Itoa(MaxEngines)+"; anything beyond one reference engine runs the cluster simulation")
	fs.StringVar(&o.Dispatch, "dispatch", o.Dispatch, "cluster dispatch policy: rr, jsq, load, blind-load")
	fs.DurationVar(&o.SignalInterval, "signal-interval", o.SignalInterval, "staleness bound of the dispatcher's engine-state snapshots (0 = exact state)")
	fs.StringVar(&o.Admission, "admission", o.Admission, "cluster admission policy: none, queue-cap[:N], slo")
	fs.StringVar(&o.Rebalance, "rebalance", o.Rebalance, "cluster migration policy: none, steal (idle engines pull), shed (overloaded engines push)")
	fs.DurationVar(&o.RebalanceInterval, "rebalance-interval", o.RebalanceInterval, "minimum virtual time between rebalance rounds (0 = migration off)")
	fs.DurationVar(&o.MigrationCost, "migration-cost", o.MigrationCost, "per-request migration latency penalty in reference units")
	fs.IntVar(&o.MigrationBudget, "migration-budget", o.MigrationBudget, "max total migrations per run (0 = once-per-request rule only)")

	mtbf, mttr := time.Second, 100*time.Millisecond
	var setMTBF, setMTTR bool
	churnModel := func() {
		o.MTBF, o.MTTR = 0, 0
		if o.Churn || setMTBF {
			o.MTBF = mtbf
		}
		if o.Churn || setMTTR {
			o.MTTR = mttr
		}
	}
	fs.BoolFunc("churn", "inject deterministic engine failures: each engine alternates exponential up/down phases of mean -mtbf/-mttr", func(s string) error {
		v, err := strconv.ParseBool(s)
		if err != nil {
			return err
		}
		o.Churn = v
		churnModel()
		return nil
	})
	explicit := func(d *time.Duration, set *bool) func(string) error {
		return func(s string) error {
			v, err := time.ParseDuration(s)
			if err != nil {
				return err
			}
			*d, *set = v, true
			churnModel()
			return nil
		}
	}
	fs.Func("mtbf", "mean virtual time between failures per engine (with -churn; default 1s)", explicit(&mtbf, &setMTBF))
	fs.Func("mttr", "mean virtual down-time per failure (with -churn; default 100ms)", explicit(&mttr, &setMTTR))
	fs.IntVar(&o.RetryMax, "retry-max", o.RetryMax, "max restart-from-zero retries per request after a failure destroys its progress; past the cap it counts as lost work (0 = unlimited, with -churn)")

	fs.StringVar(&o.Traffic, "traffic", o.Traffic, "arrival process: poisson (the default), mmpp (bursty), diurnal (day/night rate curve), replay:PATH (recorded arrivals CSV)")
	fs.Float64Var(&o.Burst, "burst", o.Burst, "mmpp burst-to-quiet rate ratio (0 = default 8, with -traffic mmpp)")
	fs.BoolVar(&o.Autoscale, "autoscale", o.Autoscale, "scale the live engine set between -scale-min and -scale-max with the SLO-driven policy (drains idle engines, re-joins them under load)")
	fs.IntVar(&o.ScaleMin, "scale-min", o.ScaleMin, "autoscaler lower bound on live engines (0 = 1, with -autoscale)")
	fs.IntVar(&o.ScaleMax, "scale-max", o.ScaleMax, "autoscaler upper bound on live engines (0 = cluster size, with -autoscale)")
	fs.StringVar(&o.Capture, "capture", o.Capture, "result capture mode: full (exact percentiles from the retained latencies) or bounded (constant memory; percentiles from a ~3%-error histogram, every other metric identical)")
}

// enginesFlag binds -engines to Options.Engines and EngineSpecs through
// ParseEngines. Its String is the text last set, so a CLI can echo the
// engine mix as the user wrote it.
type enginesFlag struct {
	o    *Options
	text string
}

func (f *enginesFlag) String() string { return f.text }

func (f *enginesFlag) Set(s string) error {
	n, specs, err := ParseEngines(s)
	if err != nil {
		return err
	}
	f.o.Engines, f.o.EngineSpecs, f.text = n, specs, s
	return nil
}
