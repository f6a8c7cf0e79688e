package cluster_test

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"sparsedysta/internal/accel/eyeriss"
	"sparsedysta/internal/cluster"
	"sparsedysta/internal/core"
	"sparsedysta/internal/models"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// ExampleRun scales the paper's data-center scenario (Table 3) out to a
// node with four Eyeriss-V2 accelerators behind a dispatch layer.
//
// Each arriving request (SSD, VGG-16, ResNet-50 in three sparsity
// patterns each) is routed to one accelerator at arrival, and every
// accelerator runs its own Dysta scheduler. At a rate that saturates the
// node it compares round-robin (load-blind), join-shortest-queue (counts
// requests, not work), and least-predicted-load on the pattern-blind
// estimator and on the sparsity-aware Dysta LUT: the dispatch-layer
// analogue of the paper's core insight, since the same architecture
// differs up to ~40% in effective work across sparsity patterns
// (Fig. 4).
func ExampleRun() {
	const nEngines = 4

	variants := []struct {
		pattern sparsity.Pattern
		rate    float64
	}{
		{sparsity.RandomPointwise, 0.85},
		{sparsity.BlockNM, 0.75},
		{sparsity.ChannelWise, 0.70},
	}
	var entries []workload.Entry
	for _, build := range []func() *models.Model{models.SSD300, models.VGG16, models.ResNet50} {
		for _, v := range variants {
			entries = append(entries, workload.Entry{
				Model: build(), Pattern: v.pattern, WeightRate: v.rate, Weight: 1})
		}
	}
	scenario := workload.Scenario{
		Name:    "datacenter-cluster",
		Entries: entries,
		Accel:   eyeriss.NewDefault(),
	}

	profiling, evaluation, err := workload.BuildStores(scenario, 60, 250, 13)
	if err != nil {
		log.Fatal(err)
	}
	lut, err := trace.NewStatsSet(profiling)
	if err != nil {
		log.Fatal(err)
	}
	est := sched.NewEstimator(lut)

	mean, err := workload.MeanIsolated(scenario, evaluation)
	if err != nil {
		log.Fatal(err)
	}
	// ~95% utilization per accelerator: the knee where dispatch matters.
	rate := float64(nEngines) * 0.95 / mean.Seconds()
	fmt.Printf("data-center node: %d accelerators, SSD + VGG-16 + ResNet-50, 3 patterns each\n", nEngines)
	fmt.Printf("mean isolated inference %v; arrival rate %.2f req/s (~95%% per-engine utilization)\n\n",
		mean.Round(time.Millisecond), rate)

	requests, err := workload.Generate(scenario, evaluation, workload.GenConfig{
		Requests: 2000, RatePerSec: rate, SLOMultiplier: 10, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	policies := []cluster.Dispatcher{
		cluster.NewRoundRobin(),
		cluster.NewJSQ(),
		cluster.NewLeastLoad("blind-load", cluster.BlindLoad(est)),
		cluster.NewLeastLoad("sparse-load", cluster.SparsityAwareLoad(lut, est)),
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dispatch\tANTT\tviol%\tthroughput\tutilization\timbalance")
	var last cluster.Result
	for _, d := range policies {
		res, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) },
			requests, cluster.Config{Engines: nEngines, Dispatch: d})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f\t%.1f\t%.1f%%\t%.3f\n",
			res.Dispatch, res.ANTT, 100*res.ViolationRate, res.Throughput,
			100*res.Utilization, res.Imbalance)
		last = res
	}
	tw.Flush()

	// Per-engine breakdown under the sparsity-aware policy: how evenly
	// the predicted-load dispatcher spread the work.
	fmt.Printf("\nper-engine breakdown under %s dispatch:\n", last.Dispatch)
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\trequests\tANTT\tviol%")
	for i, r := range last.PerEngine {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.1f\n", i, r.Requests, r.ANTT, 100*r.ViolationRate)
	}
	tw.Flush()
	// Output:
	// data-center node: 4 accelerators, SSD + VGG-16 + ResNet-50, 3 patterns each
	// mean isolated inference 355ms; arrival rate 10.70 req/s (~95% per-engine utilization)
	//
	// dispatch     ANTT  viol%  throughput  utilization  imbalance
	// rr           2.13  1.1    10.8        92.9%        1.051
	// jsq          1.72  0.1    10.9        93.7%        1.045
	// blind-load   1.72  0.1    10.9        93.7%        1.031
	// sparse-load  1.72  0.2    10.9        93.7%        1.023
	//
	// per-engine breakdown under sparse-load dispatch:
	// engine  requests  ANTT  viol%
	// 0       487       1.72  0.4
	// 1       533       1.71  0.0
	// 2       508       1.73  0.2
	// 3       472       1.74  0.2
}
