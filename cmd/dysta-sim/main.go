// Command dysta-sim runs a single multi-DNN scheduling simulation with
// full control over the workload and scheduler, printing the metrics of
// paper §6.1 (ANTT, SLO violation rate, throughput).
//
// Usage:
//
//	dysta-sim -workload attnn -sched Dysta -rate 30 -mslo 10
//	dysta-sim -workload cnn -sched all -rate 3 -seeds 5
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/exp"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "attnn", "workload scenario: attnn, cnn, or a path to a JSON spec (see -dump-spec)")
		schedArg = flag.String("sched", "all", "scheduler: FCFS, SJF, SDRM3, PREMA, Planaria, Dysta, Dysta-w/o-sparse, Oracle, or 'all'")
		rate     = flag.Float64("rate", 0, "arrival rate in req/s (0 = scenario default: 30 attnn, 3 cnn)")
		mslo     = flag.Float64("mslo", 10, "latency SLO multiplier")
		requests = flag.Int("requests", 1000, "requests per run")
		seeds    = flag.Int("seeds", 5, "seeds to average")
		profileN = flag.Int("profile-samples", 100, "offline profiling samples per model-pattern pair")
		evalN    = flag.Int("eval-samples", 400, "evaluation trace pool per model-pattern pair")
		workers  = flag.Int("workers", 0, "parallel simulation workers (0 = all cores, 1 = sequential)")
		engines  = flag.String("engines", "1", "simulated accelerators: a count (\"4\") or a heterogeneous mix (\"2x1,2x2\" = 2 reference-speed + 2 half-speed); anything beyond one reference engine runs the cluster simulation")
		dispatch = flag.String("dispatch", "rr", "cluster dispatch policy: rr, jsq, load, blind-load")
		signalIv = flag.Duration("signal-interval", 0, "staleness bound of the dispatcher's engine-state snapshots (0 = exact state)")
		admit    = flag.String("admission", "none", "cluster admission policy: none, queue-cap[:N], slo")
		rebal    = flag.String("rebalance", "none", "cluster migration policy: none, steal (idle engines pull), shed (overloaded engines push)")
		rebalIv  = flag.Duration("rebalance-interval", 0, "minimum virtual time between rebalance rounds (0 = migration off)")
		migCost  = flag.Duration("migration-cost", 0, "per-request migration latency penalty in reference units")
		migBudg  = flag.Int("migration-budget", 0, "max total migrations per run (0 = once-per-request rule only)")
		churn    = flag.Bool("churn", false, "inject deterministic engine failures: each engine alternates exponential up/down phases of mean -mtbf/-mttr")
		mtbf     = flag.Duration("mtbf", time.Second, "mean virtual time between failures per engine (with -churn)")
		mttr     = flag.Duration("mttr", 100*time.Millisecond, "mean virtual down-time per failure (with -churn)")
		retryMax = flag.Int("retry-max", 0, "max restart-from-zero retries per request after a failure destroys its progress; past the cap it counts as lost work (0 = unlimited, with -churn)")
		trafArg  = flag.String("traffic", "", "arrival process: poisson (default), mmpp (bursty), diurnal (day/night rate curve), replay:PATH (recorded arrivals CSV)")
		burst    = flag.Float64("burst", 0, "mmpp burst-to-quiet rate ratio (0 = default 8, with -traffic mmpp)")
		autoscl  = flag.Bool("autoscale", false, "scale the live engine set between -scale-min and -scale-max with the SLO-driven policy (drains idle engines, re-joins them under load)")
		capture  = flag.String("capture", "full", "result capture mode: full (exact percentiles from the retained latencies) or bounded (constant memory; percentiles from a ~3%-error histogram, every other metric identical)")
		scaleMin = flag.Int("scale-min", 0, "autoscaler lower bound on live engines (0 = 1, with -autoscale)")
		scaleMax = flag.Int("scale-max", 0, "autoscaler upper bound on live engines (0 = cluster size, with -autoscale)")
		eta      = flag.Float64("eta", core.DefaultConfig().Eta, "Dysta eta (dynamic slack weight)")
		beta     = flag.Float64("beta", core.DefaultConfig().Beta, "Dysta beta (static slack weight)")
		dumpSpec = flag.Bool("dump-spec", false, "print the selected scenario as a JSON spec and exit")
		perModel = flag.Bool("per-model", false, "also print the per-model metric breakdown")
	)
	flag.Parse()
	// Dysta's knobs fail here, before any worker builds a scheduler from
	// them (core.New panics on an invalid configuration), and whichever
	// -sched is selected.
	cfg := core.DefaultConfig()
	cfg.Eta = *eta
	cfg.Beta = *beta
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var sc workload.Scenario
	switch *wl {
	case "attnn":
		sc = workload.MultiAttNN()
		if *rate == 0 {
			*rate = 30
		}
	case "cnn":
		sc = workload.MultiCNN()
		if *rate == 0 {
			*rate = 3
		}
	default:
		f, err := os.Open(*wl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "workload %q is not attnn/cnn and not a readable spec: %v\n", *wl, err)
			os.Exit(2)
		}
		sc, err = workload.LoadSpec(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *rate == 0 {
			*rate = 10
		}
	}
	if *dumpSpec {
		if err := workload.SaveSpec(os.Stdout, workload.ToSpec(sc)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	nEngines, engineSpecs, err := exp.ParseEngines(*engines)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := exp.Options{
		Seeds:             *seeds,
		Requests:          *requests,
		ProfileSamples:    *profileN,
		EvalSamples:       *evalN,
		Workers:           *workers,
		Engines:           nEngines,
		EngineSpecs:       engineSpecs,
		Dispatch:          *dispatch,
		SignalInterval:    *signalIv,
		Admission:         *admit,
		Rebalance:         *rebal,
		RebalanceInterval: *rebalIv,
		MigrationCost:     *migCost,
		MigrationBudget:   *migBudg,
		Churn:             *churn,
		RetryMax:          *retryMax,
		Traffic:           *trafArg,
		Burst:             *burst,
		Autoscale:         *autoscl,
		ScaleMin:          *scaleMin,
		ScaleMax:          *scaleMax,
		Capture:           *capture,
	}
	opts.SetChurnModel(flag.CommandLine, *mtbf, *mttr)
	// Flags that only make sense together (e.g. -burst without -traffic
	// mmpp, -migration-cost without -rebalance, -scale-min above
	// -scale-max) and negative knobs fail here.
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p, err := exp.NewPipeline(sc, opts, 7)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	specs := exp.WithOracle(exp.StandardScheds())
	specs = append(specs, exp.SchedSpec{Name: "Dysta-w/o-sparse",
		New: func(p *exp.Pipeline) sched.Scheduler { return core.NewWithoutSparse(p.LUT) }})
	if *schedArg != "all" {
		var filtered []exp.SchedSpec
		for _, s := range specs {
			if s.Name == *schedArg {
				filtered = append(filtered, s)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "unknown scheduler %q\n", *schedArg)
			os.Exit(2)
		}
		specs = filtered
	}
	// Replace the default Dysta spec with the flag-configured one.
	for i := range specs {
		if specs[i].Name == "Dysta" {
			specs[i].New = func(p *exp.Pipeline) sched.Scheduler { return core.New(cfg, p.LUT) }
		}
	}

	results, err := p.RunPoint(specs, *rate, *mslo, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	clustered := nEngines > 1 || len(engineSpecs) > 0
	migrating := *rebal != "none" && *rebal != "" && *rebalIv > 0
	fmt.Printf("workload %s  rate %.1f req/s  M_slo %.0fx  %d requests x %d seeds",
		sc.Name, *rate, *mslo, *requests, *seeds)
	if clustered {
		fmt.Printf("  engines %s (%s dispatch, %v signal interval, %s admission)",
			*engines, *dispatch, *signalIv, *admit)
	}
	if migrating {
		fmt.Printf("  rebalance %s every %v (cost %v)", *rebal, *rebalIv, *migCost)
	}
	if *churn {
		fmt.Printf("  churn mtbf %v mttr %v retry-max %d", *mtbf, *mttr, *retryMax)
	}
	if *trafArg != "" {
		fmt.Printf("  traffic %s", *trafArg)
		if *trafArg == "mmpp" {
			b := *burst
			if b == 0 {
				b = exp.DefaultBurst
			}
			fmt.Printf(" (burst %gx)", b)
		}
	}
	if *autoscl {
		min, max := *scaleMin, *scaleMax
		if min == 0 {
			min = 1
		}
		if max == 0 {
			max = nEngines
			if len(engineSpecs) > 0 {
				max = len(engineSpecs)
			}
		}
		fmt.Printf("  autoscale %d..%d engines", min, max)
	}
	if *capture == "bounded" {
		fmt.Print("  bounded capture")
	}
	fmt.Print("\n\n")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "scheduler\tANTT\tviol%\tthroughput\tgoodput\trejected\tmean lat\tp99 lat\tpreemptions"
	if migrating {
		header += "\tmigrations\twin/loss"
	}
	if *churn {
		header += "\tfailovers\tretries\tredirects\tlost"
	}
	if *autoscl {
		header += "\tengine-s\tups\tdowns"
	}
	fmt.Fprintln(tw, header)
	for _, s := range specs {
		r := results[s.Name]
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f\t%.2f\t%.2f\t%d\t%v\t%v\t%d",
			r.Scheduler, r.ANTT, 100*r.ViolationRate, r.Throughput, r.Goodput, r.Rejected,
			r.MeanLatency.Round(time.Microsecond), r.P99Latency.Round(time.Microsecond),
			r.Preemptions)
		if migrating {
			fmt.Fprintf(tw, "\t%d\t%d/%d", r.Migrations, r.MigrationWins, r.MigrationLosses)
		}
		if *churn {
			fmt.Fprintf(tw, "\t%d\t%d\t%d\t%d", r.Failovers, r.Retries, r.Redirects, r.LostWork)
		}
		if *autoscl {
			fmt.Fprintf(tw, "\t%.2f\t%d\t%d", r.EngineSeconds, r.ScaleUps, r.ScaleDowns)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	if *perModel {
		fmt.Println()
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "scheduler\tmodel\trequests\tANTT\tviol%")
		for _, s := range specs {
			r := results[s.Name]
			names := make([]string, 0, len(r.PerModel))
			for name := range r.PerModel {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := r.PerModel[name]
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%.1f\n",
					r.Scheduler, name, m.Requests, m.ANTT, 100*m.ViolationRate)
			}
		}
		tw.Flush()
	}
}
