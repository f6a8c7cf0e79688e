package workload_test

import (
	"bytes"
	"fmt"
	"log"
	"strings"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// ExampleLoadSpec is the public-benchmark workflow of the paper's
// artifact (Appendix A), end to end through the library API:
//
//  1. define a scenario as a shareable JSON spec (here: a robotics stack
//     with tight-SLO hand detection and best-effort classification);
//  2. run Phase 1 (hardware simulation) and persist the runtime
//     information as CSV, as the paper's hw_simulator does;
//  3. reload the CSV, build the scheduler LUTs, and run Phase 2 under
//     Dysta;
//  4. export per-request outcomes for external analysis and draw the
//     schedule of the first spans.
func ExampleLoadSpec() {
	// 1. The scenario spec, as it would live in a versioned JSON file.
	scenario, err := workload.LoadSpec(strings.NewReader(`{
	  "name": "robotics-perception",
	  "accelerator": "eyeriss-v2",
	  "entries": [
	    {"model": "ssd", "pattern": "random", "weight_rate": 0.8, "weight": 2, "slo_factor": 0.5},
	    {"model": "resnet50", "pattern": "nm", "weight_rate": 0.75, "weight": 1, "slo_factor": 2.0}
	  ]
	}`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %q: %d entries on %s\n",
		scenario.Name, len(scenario.Entries), scenario.Accel.Name())

	// 2. Phase 1: simulate the dataset and persist runtime info per
	//    model-pattern pair (in-memory buffers stand in for files here).
	var files []*bytes.Buffer
	profiling := trace.NewStore()
	for i, e := range scenario.Entries {
		traces, err := trace.Build(scenario.Accel, trace.BuildConfig{
			Model: e.Model, Pattern: e.Pattern, WeightRate: e.WeightRate,
			Samples: 150, Seed: uint64(i) + 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		profiling.Add(e.Key(), traces[:50]) // offline profiling split
		buf := &bytes.Buffer{}
		if err := trace.WriteCSV(buf, e.Key(), traces[50:]); err != nil {
			log.Fatal(err)
		}
		files = append(files, buf)
		fmt.Printf("  phase 1: %v -> %d samples (%d KB of runtime info)\n",
			e.Key(), len(traces), buf.Len()/1024)
	}

	// 3. Phase 2: reload the saved runtime info and schedule against it.
	evaluation := trace.NewStore()
	for _, buf := range files {
		key, traces, err := trace.ReadCSV(buf)
		if err != nil {
			log.Fatal(err)
		}
		evaluation.Add(key, traces)
	}
	lut, err := trace.NewStatsSet(profiling)
	if err != nil {
		log.Fatal(err)
	}
	mean, err := workload.MeanIsolated(scenario, evaluation)
	if err != nil {
		log.Fatal(err)
	}
	requests, err := workload.Generate(scenario, evaluation, workload.GenConfig{
		Requests:      400,
		RatePerSec:    0.85 / mean.Seconds(),
		SLOMultiplier: 8,
		Seed:          42,
	})
	if err != nil {
		log.Fatal(err)
	}
	result, err := sched.Run(core.NewDefault(lut), requests,
		sched.Options{RecordTasks: true, RecordTimeline: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nphase 2 under %s: ANTT %.2f, violations %.1f%%, %d preemptions\n",
		result.Scheduler, result.ANTT, 100*result.ViolationRate, result.Preemptions)
	for _, m := range result.PerModel {
		fmt.Printf("  %-9s %3d requests  ANTT %6.2f  violations %5.1f%%\n",
			m.Model, m.Requests, m.ANTT, 100*m.ViolationRate)
	}

	// 4. Outcome export + a schedule snapshot.
	var outcomes bytes.Buffer
	if err := sched.WriteOutcomesCSV(&outcomes, result.Tasks); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noutcome CSV: %d bytes for %d requests (first line: %.60s...)\n",
		outcomes.Len(), len(result.Tasks), outcomes.String())

	spans := result.Timeline.Spans[:min(12, len(result.Timeline.Spans))]
	fmt.Printf("\nschedule of the first %d spans:\n", len(spans))
	fmt.Print((&sched.Timeline{Spans: spans}).Gantt(60))
	fmt.Printf("context switches across the run: %d over %v busy\n",
		result.Timeline.Switches(), result.Timeline.Busy().Round(time.Millisecond))
	// Output:
	// scenario "robotics-perception": 2 entries on eyeriss-v2
	//   phase 1: ssd/random -> 150 samples (148 KB of runtime info)
	//   phase 1: resnet50/nm -> 150 samples (233 KB of runtime info)
	//
	// phase 2 under Dysta: ANTT 2.26, violations 4.5%, 95 preemptions
	//   resnet50  137 requests  ANTT   1.26  violations   0.0%
	//   ssd       263 requests  ANTT   2.78  violations   6.8%
	//
	// outcome CSV: 26301 bytes for 400 requests (first line: id,model,arrival_ns,completion_ns,isolated_ns,ntt,violated
	// 0...)
	//
	// schedule of the first 12 spans:
	// t = [1.285184924s, 4.069102122s]
	// task   0 |#..##.####..######..........................................|
	// task   1 |.##.........................................................|
	// task   2 |.....#......................................................|
	// task   3 |..........##................................................|
	// task   4 |..................#.#############...........................|
	// task   5 |.................................#############..............|
	// task   6 |..................##........................................|
	// task   7 |..............................................##############|
	// context switches across the run: 494 over 2m54.404s busy
}
