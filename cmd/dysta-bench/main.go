// Command dysta-bench regenerates the tables and figures of the
// Sparse-DySta paper on the Go reproduction substrate.
//
// Usage:
//
//	dysta-bench -exp table5          # one experiment
//	dysta-bench -exp all             # every experiment, paper order
//	dysta-bench -exp fig14 -quick    # reduced protocol (fast)
//	dysta-bench -list                # list experiment ids
//
// See DESIGN.md §4 for the experiment index and docs/EXPERIMENTS.md for
// the catalog of every registered experiment with its knobs and the
// paper claim it reproduces. Host cost per simulated request is measured
// by the repository benchmark, not here: `bash bench/run.sh` (see
// bench/README.md), whose result digests and allocation medians CI
// compares against .github/bench-reference.json. README.md "Benchmarks"
// has the command that regenerates that reference.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sparsedysta/internal/exp"
)

func main() {
	var (
		expID     = flag.String("exp", "all", "experiment id (see -list), 'all', 'ablations', or 'everything'")
		quick     = flag.Bool("quick", false, "use the reduced protocol (fewer seeds/requests)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		seeds     = flag.Int("seeds", 0, "override seed count (0 = protocol default)")
		requests  = flag.Int("requests", 0, "override request count (0 = protocol default)")
		workers   = flag.Int("workers", 0, "parallel simulation workers (0 = all cores, 1 = sequential)")
		engines   = flag.String("engines", "", "override the simulated accelerators: a count (\"4\") or a heterogeneous mix (\"2x1,2x2\"); empty = per-experiment default")
		dispatch  = flag.String("dispatch", "", "override the cluster dispatch policy: rr, jsq, load, blind-load")
		signalIv  = flag.Duration("signal-interval", 0, "staleness bound of the dispatcher's engine-state snapshots (0 = exact state)")
		admit     = flag.String("admission", "", "override the cluster admission policy: none, queue-cap[:N], slo")
		rebal     = flag.String("rebalance", "", "override the cluster migration policy: none, steal, shed")
		rebalIv   = flag.Duration("rebalance-interval", 0, "minimum virtual time between rebalance rounds (0 = migration off)")
		migCost   = flag.Duration("migration-cost", 0, "per-request migration latency penalty in reference units")
		migBudg   = flag.Int("migration-budget", 0, "max total migrations per run (0 = once-per-request rule only)")
		churn     = flag.Bool("churn", false, "override: inject deterministic engine failures (exponential up/down phases of mean -mtbf/-mttr) into every cluster run")
		mtbf      = flag.Duration("mtbf", time.Second, "mean virtual time between failures per engine (with -churn)")
		mttr      = flag.Duration("mttr", 100*time.Millisecond, "mean virtual down-time per failure (with -churn)")
		retryMax  = flag.Int("retry-max", 0, "max restart-from-zero retries per request after a failure (0 = unlimited, with -churn)")
		traffic   = flag.String("traffic", "", "override the arrival process: poisson, mmpp, diurnal, replay:PATH (empty = per-experiment default)")
		burst     = flag.Float64("burst", 0, "mmpp burst-to-quiet rate ratio (0 = default 8, with -traffic mmpp)")
		autoscale = flag.Bool("autoscale", false, "scale the live engine set between -scale-min and -scale-max with the SLO-driven policy")
		capture   = flag.String("capture", "", "override the result capture mode: full or bounded (empty = per-experiment default)")
		scaleMin  = flag.Int("scale-min", 0, "autoscaler lower bound on live engines (0 = 1, with -autoscale)")
		scaleMax  = flag.Int("scale-max", 0, "autoscaler upper bound on live engines (0 = cluster size, with -autoscale)")
		outDir    = flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
	)
	flag.Parse()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *list {
		for _, id := range exp.AllIDs() {
			fmt.Println(id)
		}
		return
	}

	opts := exp.DefaultOptions()
	if *quick {
		opts = exp.QuickOptions()
	}
	// 0 keeps the protocol default; any other value, negative included,
	// goes to Validate.
	if *seeds != 0 {
		opts.Seeds = *seeds
	}
	if *requests != 0 {
		opts.Requests = *requests
	}
	opts.Workers = *workers
	if *engines != "" {
		n, specs, err := exp.ParseEngines(*engines)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Engines = n
		opts.EngineSpecs = specs
	}
	if *dispatch != "" {
		opts.Dispatch = *dispatch
	}
	opts.SignalInterval = *signalIv
	if *admit != "" {
		opts.Admission = *admit
	}
	if *rebal != "" {
		opts.Rebalance = *rebal
	}
	opts.RebalanceInterval = *rebalIv
	opts.MigrationCost = *migCost
	opts.MigrationBudget = *migBudg
	opts.Churn = *churn
	opts.RetryMax = *retryMax
	opts.SetChurnModel(flag.CommandLine, *mtbf, *mttr)
	opts.Traffic = *traffic
	opts.Burst = *burst
	opts.Autoscale = *autoscale
	opts.ScaleMin = *scaleMin
	opts.ScaleMax = *scaleMax
	if *capture != "" {
		opts.Capture = *capture
	}
	// Flags that only make sense together (e.g. -burst without -traffic
	// mmpp, -migration-cost without -rebalance, -scale-min above
	// -scale-max) and negative knobs fail here.
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ids := []string{*expID}
	switch *expID {
	case "all":
		ids = exp.IDs()
	case "ablations":
		ids = exp.AblationIDs()
	case "everything":
		ids = exp.AllIDs()
	}
	for _, id := range ids {
		runner, err := exp.Lookup(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		start := time.Now()
		arts, err := runner(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		var rendered strings.Builder
		for _, a := range arts {
			rendered.WriteString(a.Render())
			rendered.WriteString("\n")
		}
		fmt.Print(rendered.String())
		fmt.Printf("-- %s regenerated in %v --\n\n", id, time.Since(start).Round(time.Millisecond))
		if *outDir != "" {
			path := filepath.Join(*outDir, id+".txt")
			if err := os.WriteFile(path, []byte(rendered.String()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
