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
	"cmp"
	"flag"
	"fmt"
	"math"
	"os"
	"text/tabwriter"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/exp"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

func main() {
	opts := exp.Options{
		Seeds:          5,
		Requests:       1000,
		ProfileSamples: 100,
		EvalSamples:    400,
		Engines:        1,
		Dispatch:       "rr",
		Admission:      "none",
		Rebalance:      "none",
		Capture:        "full",
	}
	opts.RegisterFlags(flag.CommandLine)
	flag.IntVar(&opts.Requests, "requests", opts.Requests, "requests per run")
	flag.IntVar(&opts.Seeds, "seeds", opts.Seeds, "seeds to average")
	flag.IntVar(&opts.ProfileSamples, "profile-samples", opts.ProfileSamples, "offline profiling samples per model-pattern pair")
	flag.IntVar(&opts.EvalSamples, "eval-samples", opts.EvalSamples, "evaluation trace pool per model-pattern pair")
	var (
		wl       = flag.String("workload", "attnn", "workload scenario: attnn, cnn, or a path to a JSON spec (see -dump-spec)")
		schedArg = flag.String("sched", "all", "scheduler: FCFS, SJF, SDRM3, PREMA, Planaria, Dysta, Dysta-w/o-sparse, Oracle, or 'all'")
		rate     = flag.Float64("rate", 0, "arrival rate in req/s (0 = scenario default: 30 attnn, 3 cnn)")
		mslo     = flag.Float64("mslo", 10, "latency SLO multiplier (at least 1)")
		eta      = flag.Float64("eta", core.DefaultConfig().Eta, "Dysta eta (dynamic slack weight)")
		beta     = flag.Float64("beta", core.DefaultConfig().Beta, "Dysta beta (static slack weight)")
		dumpSpec = flag.Bool("dump-spec", false, "print the selected scenario as a JSON spec and exit")
		perModel = flag.Bool("per-model", false, "also print the per-model metric breakdown")
	)
	flag.Parse()
	// badFlag reports a bad flag the way the flag package does: exit 2.
	badFlag := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Dysta's knobs fail here, before any worker builds a scheduler from
	// them (core.New panics on an invalid configuration), and whichever
	// -sched is selected.
	cfg := core.DefaultConfig()
	cfg.Eta = *eta
	cfg.Beta = *beta
	if err := cfg.Validate(); err != nil {
		badFlag(fmt.Errorf("-eta/-beta: %w", err))
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
			badFlag(fmt.Errorf("-workload %q is not attnn/cnn and not a readable spec: %v", *wl, err))
		}
		sc, err = workload.LoadSpec(f)
		f.Close()
		if err != nil {
			badFlag(fmt.Errorf("-workload %s: %w", *wl, err))
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

	// Every flag fails here, before Phase 1. Flags that only make sense
	// together (e.g. -burst without -traffic mmpp, -migration-cost
	// without -rebalance, -scale-min above -scale-max) and negative
	// knobs fail in Validate.
	if !(*rate > 0 && *rate < math.Inf(1)) {
		badFlag(fmt.Errorf("-rate %v not finite and positive (0 = scenario default)", *rate))
	}
	if !(*mslo >= 1 && *mslo < math.Inf(1)) {
		badFlag(fmt.Errorf("-mslo %v not finite and at least 1", *mslo))
	}
	if err := opts.Validate(); err != nil {
		badFlag(err)
	}
	lineup := append(exp.WithOracle(exp.StandardScheds()), exp.SchedSpec{Name: "Dysta-w/o-sparse",
		New: func(p *exp.Pipeline) sched.Scheduler { return core.NewWithoutSparse(p.LUT) }})
	var specs []exp.SchedSpec
	for _, s := range lineup {
		if *schedArg != "all" && s.Name != *schedArg {
			continue
		}
		if s.Name == "Dysta" { // the flag-configured Dysta
			s.New = func(p *exp.Pipeline) sched.Scheduler { return core.New(cfg, p.LUT) }
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		badFlag(fmt.Errorf("unknown -sched scheduler %q", *schedArg))
	}

	p, err := exp.NewPipeline(sc, opts, 7)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	results, err := p.RunPoint(specs, *rate, *mslo, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	shape := opts.Shape()
	migrating := opts.RebalanceInterval > 0 // Validate ties it to a -rebalance policy
	fmt.Printf("workload %s  rate %.1f req/s  M_slo %.0fx  %d requests x %d seeds",
		sc.Name, *rate, *mslo, opts.Requests, opts.Seeds)
	if shape.Clustered {
		fmt.Printf("  engines %s (%s dispatch, %v signal interval, %s admission)",
			flag.Lookup("engines").Value, opts.Dispatch, opts.SignalInterval, opts.Admission)
	}
	if migrating {
		fmt.Printf("  rebalance %s every %v (cost %v)", opts.Rebalance, opts.RebalanceInterval, opts.MigrationCost)
	}
	if opts.Churn {
		fmt.Printf("  churn mtbf %v mttr %v retry-max %d", opts.MTBF, opts.MTTR, opts.RetryMax)
	}
	if opts.Traffic != "" {
		fmt.Printf("  traffic %s", opts.Traffic)
		if opts.Traffic == "mmpp" {
			fmt.Printf(" (burst %gx)", cmp.Or(opts.Burst, exp.DefaultBurst))
		}
	}
	if opts.Autoscale {
		fmt.Printf("  autoscale %d..%d engines", shape.ScaleMin, shape.ScaleMax)
	}
	if opts.Capture == "bounded" {
		fmt.Print("  bounded capture")
	}
	fmt.Print("\n\n")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "scheduler\tANTT\tviol%\tthroughput\tgoodput\trejected\tmean lat\tp99 lat\tpreemptions"
	if migrating {
		header += "\tmigrations\twin/loss"
	}
	if opts.Churn {
		header += "\tfailovers\tretries\tredirects\tlost"
	}
	if opts.Autoscale {
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
		if opts.Churn {
			fmt.Fprintf(tw, "\t%d\t%d\t%d\t%d", r.Failovers, r.Retries, r.Redirects, r.LostWork)
		}
		if opts.Autoscale {
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
			for _, m := range r.PerModel {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%.1f\n",
					r.Scheduler, m.Model, m.Requests, m.ANTT, 100*m.ViolationRate)
			}
		}
		tw.Flush()
	}
}
