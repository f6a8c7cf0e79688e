package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"sparsedysta/internal/exp"
)

const (
	// childEnv marks a re-executed child process. The benchmark binary
	// and its test binary both check it before parsing their own flags.
	childEnv = "DYSTA_BENCH_CHILD"
	// setupReps is how many times a child sets its workload up.
	setupReps = 5
)

// childReport is what one child process measured, written to its
// standard output as JSON.
type childReport struct {
	Workload      string  `json:"workload"`
	Traced        bool    `json:"traced"`
	SetupNS       int64   `json:"setup_ns"`
	BuildStoresNS int64   `json:"build_stores_ns"`
	StatsSetNS    int64   `json:"stats_set_ns"`
	RunNS         int64   `json:"run_ns"`
	Offered       int     `json:"offered"`
	Allocs        uint64  `json:"allocs"`
	Bytes         uint64  `json:"bytes"`
	GCCycles      uint64  `json:"gc_cycles"`
	GCCPUPct      float64 `json:"gc_cpu_pct"`
	Digest        string  `json:"digest"`
	ANTT          float64 `json:"antt"`
	ViolPct       float64 `json:"viol_pct"`
	Goodput       float64 `json:"goodput"`
	// Layers holds the traced child's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
	// MaxRSSKB is the child's peak resident set, read by the parent.
	MaxRSSKB int64 `json:"-"`
}

// childMain runs one workload once in this process and reports it.
func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	traced := fs.Bool("traced", false, "decorate every seam and report per-layer metrics")
	quick := fs.Bool("quick", false, "run at quick scale")
	out := fs.String("out", "bench-out", "directory for the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	sz := fullSize
	if *quick {
		sz = quickSize
	}
	rep, err := measure(w, sz, *seed, *traced, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", w.Name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", w.Name, err)
		return 1
	}
	return 0
}

// measure sets the workload up, runs it once and reports what it cost.
// With traced set every seam is decorated, per-layer metrics are
// computed and the kept spans are written to outDir.
func measure(w benchWorkload, sz sizing, seed uint64, traced bool, outDir string) (childReport, error) {
	rep := childReport{Workload: w.Name, Traced: traced}
	var inner, full float64
	if traced {
		inner, full = spanCost()
	}
	// Set-up takes milliseconds, so one reading is mostly host jitter:
	// it runs setupReps times and reports the medians. The run uses the
	// last set of pipelines (every set-up is identical).
	var ps []*exp.Pipeline
	var total, build, stats [setupReps]float64
	for i := range total {
		t0 := time.Now()
		var st setupTimes
		var err error
		ps, st, err = setup(w, sz, seed)
		if err != nil {
			return rep, fmt.Errorf("set-up: %w", err)
		}
		total[i] = float64(time.Since(t0))
		build[i], stats[i] = float64(st.BuildStores), float64(st.StatsSet)
	}
	rep.SetupNS = int64(median(total[:]))
	rep.BuildStoresNS, rep.StatsSetNS = int64(median(build[:])), int64(median(stats[:]))

	// The run starts from a collected heap, so set-up garbage is not
	// billed to it.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0 := readGC()
	start := time.Now()
	var l *ledger
	if traced {
		l = &ledger{epoch: start}
	}
	out, err := w.Run(ps, sz, seed, l)
	wall := time.Since(start)
	g1 := readGC()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return rep, err
	}
	if want := w.Requests(sz); out.Offered != want {
		return rep, fmt.Errorf("offered %d requests, want %d", out.Offered, want)
	}

	rep.RunNS = int64(wall)
	rep.Offered = out.Offered
	rep.Allocs = m1.Mallocs - m0.Mallocs
	rep.Bytes = m1.TotalAlloc - m0.TotalAlloc
	rep.GCCycles = g1.cycles - g0.cycles
	if used := (g1.total - g1.idle) - (g0.total - g0.idle); used > 0 {
		rep.GCCPUPct = 100 * (g1.gc - g0.gc) / used
	}
	rep.Digest = digest(out.Result)
	rep.ANTT, rep.ViolPct, rep.Goodput = out.ANTT, out.ViolPct, out.Goodput
	if traced {
		rep.Layers = layerMetrics(l, wall, out.Offered, inner, full)
		if err := l.writeSpans(outDir, w.Name, wall); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// gcSnapshot is the runtime's GC accounting at one instant.
type gcSnapshot struct {
	cycles          uint64
	gc, total, idle float64
}

// readGC samples the GC cycle count and the runtime's CPU-time classes.
func readGC() gcSnapshot {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSnapshot{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// layerMetrics turns a traced run's ledger into per-layer metrics. Layer
// times lose the empty-span reading (inner) per call; the engine
// remainder is the traced wall minus those times and minus the full cost
// of every span. Extraction is counted, not costed: its time stays in
// the remainder.
func layerMetrics(l *ledger, wall time.Duration, offered int, inner, full float64) map[string]float64 {
	req := float64(offered)
	cost := func(id layerID) float64 { return float64(l.ns[id]) - float64(l.calls[id])*inner }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rem := float64(wall)
	var calls int64
	for id := layerID(0); id < numLayers; id++ {
		calls += l.calls[id]
		if id != layerExtract {
			rem -= cost(id)
		}
	}
	rem -= float64(calls) * full
	return map[string]float64{
		"workload.next.ns":                 cost(layerNext) / req,
		"workload.next.calls_per_req":      float64(l.calls[layerNext]) / req,
		"sched.arrival.ns":                 cost(layerArrival) / req,
		"sched.pick.ns":                    cost(layerPick) / req,
		"sched.pick.calls_per_req":         float64(l.calls[layerPick]) / req,
		"sched.pick.depth_mean":            ratio(l.pickDepth, l.calls[layerPick]),
		"sched.layer.ns":                   cost(layerLayer) / req,
		"sched.extract.calls":              float64(l.calls[layerExtract]),
		"cluster.dispatch.ns":              cost(layerDispatch) / req,
		"cluster.load_est.calls_per_req":   float64(l.loadCalls) / req,
		"cluster.curve.calls_per_req":      float64(l.curveCalls) / req,
		"cluster.admission.ns":             cost(layerAdmission) / req,
		"cluster.admission.admit_ratio":    ratio(l.admits, l.calls[layerAdmission]),
		"cluster.rebalance.ns":             cost(layerRebalance) / req,
		"cluster.rebalance.moves_per_call": ratio(l.moves, l.calls[layerRebalance]),
		"engine.self_ns_per_req":           rem / req,
	}
}
