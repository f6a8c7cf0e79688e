package sched_test

import (
	"fmt"
	"log"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// ExampleRun is the minimal end-to-end use of the library. It builds the
// paper's multi-AttNN benchmark workload (BERT + GPT-2 + BART on the
// Sanger sparse-attention accelerator), runs it under the sparsity-blind
// SJF baseline and under Dysta, and prints the two metrics the paper
// optimizes: ANTT and SLO violation rate.
func ExampleRun() {
	// Phase 1 (paper Fig. 7): run the hardware simulator over the
	// dataset to produce runtime information — a profiling set for the
	// schedulers' LUTs and a disjoint evaluation set for the engine.
	scenario := workload.MultiAttNN()
	profiling, evaluation, err := workload.BuildStores(scenario, 100, 400, 1)
	if err != nil {
		log.Fatal(err)
	}
	lut, err := trace.NewStatsSet(profiling)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 2: generate a Poisson request stream (30 req/s, SLO = 10x
	// the mean isolated latency) and replay it under each scheduler.
	requests, err := workload.Generate(scenario, evaluation, workload.GenConfig{
		Requests:      1000,
		RatePerSec:    30,
		SLOMultiplier: 10,
		Seed:          42,
	})
	if err != nil {
		log.Fatal(err)
	}

	schedulers := []sched.Scheduler{
		sched.NewSJF(sched.NewEstimator(lut)),
		core.NewDefault(lut),
	}
	fmt.Println("multi-AttNN workload, 1000 requests at 30 req/s, M_slo = 10x")
	for _, s := range schedulers {
		result, err := sched.Run(s, requests, sched.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s ANTT %5.2f   SLO violations %5.1f%%   throughput %.1f inf/s\n",
			result.Scheduler, result.ANTT, 100*result.ViolationRate, result.Throughput)
	}
	// Output:
	// multi-AttNN workload, 1000 requests at 30 req/s, M_slo = 10x
	// SJF      ANTT  7.50   SLO violations  15.8%   throughput 28.7 inf/s
	// Dysta    ANTT  6.89   SLO violations   4.4%   throughput 28.7 inf/s
}
