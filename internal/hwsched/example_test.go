package hwsched_test

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"sparsedysta/internal/core"
	"sparsedysta/internal/hwsched"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// ExampleNewEngine replays the paper's Table 3 mobile-phone scenario on
// the hardware side of the co-design. A phone runs BERT for question
// answering and BART and GPT-2 for machine translation on a
// Sanger-class sparse attention NPU. The float64 Dysta scheduler (and
// its sparsity-blind variant) set the reference; the FP16 hardware
// engine reproduces Dysta's decisions with a cycle budget that is a
// vanishing fraction of the workload.
func ExampleNewEngine() {
	scenario := workload.MultiAttNN()
	profiling, evaluation, err := workload.BuildStores(scenario, 100, 400, 3)
	if err != nil {
		log.Fatal(err)
	}
	lut, err := trace.NewStatsSet(profiling)
	if err != nil {
		log.Fatal(err)
	}
	requests, err := workload.Generate(scenario, evaluation, workload.GenConfig{
		Requests: 1000, RatePerSec: 30, SLOMultiplier: 10, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("mobile personal assistant: BERT QA + BART/GPT-2 translation on Sanger")
	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheduler\tANTT\tviol%\tpreemptions")
	for _, s := range []sched.Scheduler{core.NewWithoutSparse(lut), core.NewDefault(lut)} {
		r, err := sched.Run(s, requests, sched.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f\t%d\n",
			r.Scheduler, r.ANTT, 100*r.ViolationRate, r.Preemptions)
	}
	tw.Flush()

	// The hardware engine: same scheduling algorithm, FP16 datapath,
	// cycle-accounted.
	engine, err := hwsched.NewEngine(core.DefaultConfig(), lut, hwsched.FP16, 64)
	if err != nil {
		log.Fatal(err)
	}
	r, err := sched.Run(engine, requests, sched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	overhead := engine.OverheadSeconds(200e6)
	fmt.Println()
	fmt.Printf("FP16 hardware engine: ANTT %.2f, violations %.1f%% (vs float64 reference above)\n",
		r.ANTT, 100*r.ViolationRate)
	fmt.Printf("scheduler hardware time: %.3f ms over a %.1f s workload (%.5f%%), %d invocations\n",
		overhead*1e3, r.Makespan.Seconds(), 100*overhead/r.Makespan.Seconds(), engine.Invocations())
	fmt.Printf("resource footprint: %+v\n", hwsched.Estimate(hwsched.OptFP16(64)))
	// Output:
	// mobile personal assistant: BERT QA + BART/GPT-2 translation on Sanger
	//
	// scheduler         ANTT   viol%  preemptions
	// Dysta-w/o-sparse  12.52  29.8   340
	// Dysta             10.76  4.4    234
	//
	// FP16 hardware engine: ANTT 10.88, violations 4.4% (vs float64 reference above)
	// scheduler hardware time: 2.562 ms over a 34.5 s workload (0.00743%), 12000 invocations
	// resource footprint: {LUTs:556 FFs:844 DSPs:3 RAMBytes:448}
}
