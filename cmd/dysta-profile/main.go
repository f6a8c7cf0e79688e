// Command dysta-profile runs Phase 1 of the evaluation methodology (paper
// Fig. 7): it processes a synthetic dataset through the hardware simulator
// for one model-pattern pair and writes the per-layer runtime information
// (latency + monitored sparsity) as CSV, or prints the profiling summary
// that would populate Dysta's model-info LUT.
//
// Usage:
//
//	dysta-profile -model bert -samples 200 -out bert.csv
//	dysta-profile -model resnet50 -pattern random -rate 0.8 -summary
package main

import (
	"flag"
	"fmt"
	"os"

	"sparsedysta/internal/accel"
	"sparsedysta/internal/accel/eyeriss"
	"sparsedysta/internal/accel/sanger"
	"sparsedysta/internal/models"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
)

func main() {
	var (
		modelName = flag.String("model", "bert", "model name (see -list)")
		patName   = flag.String("pattern", "dense", "weight sparsity pattern: dense, random, nm, channel")
		rate      = flag.Float64("rate", 0, "weight sparsity rate in [0,1)")
		samples   = flag.Int("samples", 100, "inputs to process")
		seed      = flag.Uint64("seed", 1, "dataset seed")
		out       = flag.String("out", "", "CSV output path (default stdout)")
		in        = flag.String("in", "", "summarize an existing runtime-info CSV instead of simulating")
		summary   = flag.Bool("summary", false, "print the LUT summary instead of CSV")
		list      = flag.Bool("list", false, "list model names and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range models.Names() {
			fmt.Println(n)
		}
		return
	}

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		key, traces, err := trace.ReadCSV(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printSummary(key, traces, "file:"+*in)
		return
	}

	m, err := models.ByName(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pat, err := sparsity.ParsePattern(*patName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The negated test also rejects NaN, which fails every comparison.
	if !(*rate >= 0 && *rate < 1) {
		fmt.Fprintf(os.Stderr, "-rate %v: the weight sparsity rate must lie in [0, 1)\n", *rate)
		os.Exit(2)
	}
	if *samples < 1 {
		fmt.Fprintf(os.Stderr, "-samples %d: need at least one input\n", *samples)
		os.Exit(2)
	}
	var acc accel.Accelerator
	if m.Family == models.CNN {
		acc = eyeriss.NewDefault()
	} else {
		acc = sanger.NewDefault()
	}

	traces, err := trace.Build(acc, trace.BuildConfig{
		Model: m, Pattern: pat, WeightRate: *rate, Samples: *samples, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	key := trace.NewKey(m.Name, pat)

	if *summary {
		printSummary(key, traces, acc.Name())
		return
	}

	if *out == "" {
		if err := trace.WriteCSV(os.Stdout, key, traces); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	err = trace.WriteCSV(f, key, traces)
	// A failed Close can lose buffered data, so it fails the run too.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// printSummary renders the LUT profile of a trace set.
func printSummary(key trace.Key, traces []trace.SampleTrace, source string) {
	st, err := trace.Summarize(key, traces)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("model-pattern: %v from %s (%d samples)\n", key, source, st.Samples)
	fmt.Printf("avg isolated latency: %v\n", st.AvgTotal)
	fmt.Printf("avg network sparsity: %.3f\n", st.AvgNetworkSparsity)
	fmt.Println("layer  avg-latency  avg-sparsity  lat/sparsity-slope(ms)")
	for l := 0; l < st.NumLayers(); l++ {
		fmt.Printf("%5d  %11v  %12.3f  %10.3f\n",
			l, st.AvgLayerLatency[l], st.AvgLayerSparsity[l], st.LatSparsitySlope[l]/1e6)
	}
}
