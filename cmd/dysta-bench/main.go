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
// The serving flags shared with dysta-sim (-engines, -dispatch,
// -admission, -churn, ...; README.md "Cluster flags") reach every
// experiment through its Options: an empty or zero value keeps the
// experiment's own setting, and a sweep still sets the knob it sweeps.
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
	"time"

	"sparsedysta/internal/exp"
)

func main() {
	opts := exp.DefaultOptions()
	opts.RegisterFlags(flag.CommandLine)
	var (
		expID    = flag.String("exp", "all", "experiment id (see -list), 'all', 'ablations', or 'everything'")
		quick    = flag.Bool("quick", false, "use the reduced protocol (fewer seeds/requests)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		seeds    = flag.Int("seeds", 0, "override seed count (0 = protocol default)")
		requests = flag.Int("requests", 0, "override request count (0 = protocol default)")
		outDir   = flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
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

	if *quick {
		q := exp.QuickOptions()
		opts.Seeds, opts.Requests = q.Seeds, q.Requests
		opts.ProfileSamples, opts.EvalSamples, opts.DatasetSamples = q.ProfileSamples, q.EvalSamples, q.DatasetSamples
	}
	// 0 keeps the protocol default; any other value, negative included,
	// goes to Validate.
	if *seeds != 0 {
		opts.Seeds = *seeds
	}
	if *requests != 0 {
		opts.Requests = *requests
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
		rendered := exp.RenderAll(arts)
		fmt.Print(rendered)
		fmt.Printf("-- %s regenerated in %v --\n\n", id, time.Since(start).Round(time.Millisecond))
		if *outDir != "" {
			path := filepath.Join(*outDir, id+".txt")
			if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
