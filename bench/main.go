// Command bench is the repository's end-to-end benchmark: host cost per
// simulated request on four workloads, each run cold in a fresh child
// process, reported as medians with quartiles, plus a traced child per
// workload that splits the cost by layer. Run it from the repository
// root:
//
//	go run ./bench                          # all workloads, 7 reps each, then one traced child each
//	go run ./bench -quick                   # ~1% scale, one rep and one traced child each
//	go run ./bench -workload stream-16x -seconds 25 -trace 0
//	go run ./bench -compare a.json,b.json   # verdict per workload and end-to-end metric
//
// Every run writes bench-out/results.json; traced children write
// bench-out/<workload>.spans.json. README.md explains the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultReps is the number of untraced children per workload
	// without -seconds (one with -quick).
	defaultReps = 7
	// minRounds is the fewest untraced children a timed run makes per
	// workload, so its median rests on more than one sample.
	minRounds = 3
	// childTimeout bounds one child process.
	childTimeout = 150 * time.Second
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// parentMain parses the command line and runs the children, the
// comparison, or nothing on a usage error; it returns the exit code.
func parentMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all, round-robin)")
	seed := fs.Uint64("seed", 1, "input seed (2 is the held-out seed)")
	seconds := fs.Int("seconds", 0, "measure each workload for about this long instead of 7 reps")
	traceMode := fs.Int("trace", -1, "0: untraced children only; 1: traced and untraced children, "+
		"the final line reports per-layer metrics; -1: untraced reps, then one traced child per workload")
	quick := fs.Bool("quick", false, "about 1% scale with one untraced and one traced child per workload")
	cmp := fs.String("compare", "", "compare two results files, base.json,candidate.json")
	out := fs.String("out", "bench-out", "directory for results.json and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp != "" {
		paths := strings.Split(*cmp, ",")
		if len(paths) != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants base.json,candidate.json")
			return 2
		}
		if err := compare(stdout, paths[0], paths[1]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *traceMode < -1 || *traceMode > 1 {
		fmt.Fprintln(stderr, "bench: -trace must be -1, 0 or 1")
		return 2
	}
	ws := workloads
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []benchWorkload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// A termination signal kills the running child and skips the rest;
	// what finished is still reported, as failed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := &runner{ctx: ctx, exe: exe, seed: *seed, quick: *quick, out: *out, stderr: stderr}
	reps := defaultReps
	if *quick {
		reps, *seconds = 1, 0
	}
	results := r.run(ws, reps, time.Duration(*seconds)*time.Second, *traceMode)

	rf := resultsFile{Seed: *seed, GOMAXPROCS: runtime.GOMAXPROCS(0), Workloads: map[string]workloadResult{}}
	failed := false
	for _, c := range results {
		res := c.result()
		rf.Workloads[c.w.Name] = res
		printResult(stdout, c.w.Name, res)
		failed = failed || res.Failed > 0
	}
	if err := writeResults(filepath.Join(*out, "results.json"), rf); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		failed = true
	}
	if *name != "" {
		defs := endToEnd
		if *traceMode == 1 {
			defs = perLayer
		}
		line, err := finalLine(rf.Workloads[*name], defs)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if failed {
		return 1
	}
	return 0
}

// runner starts the child processes, one at a time, and kills the
// running one when ctx ends.
type runner struct {
	ctx    context.Context
	exe    string
	seed   uint64
	quick  bool
	out    string
	stderr io.Writer
}

// run executes the children round by round, one workload after another
// within a round, so a slow spell on the host spreads across every
// workload instead of landing on one. Each round runs one untraced child
// per workload, and with traceMode 1 a traced child right after it. It
// stops after reps rounds, or with a time budget (per workload) after at
// least minRounds rounds, before a round as long as the last one would
// overrun the budget. traceMode -1 adds one traced child per workload at
// the end.
func (r *runner) run(ws []benchWorkload, reps int, budget time.Duration, traceMode int) []*collected {
	cs := make([]*collected, len(ws))
	for i, w := range ws {
		cs[i] = &collected{w: w}
	}
	sz := fullSize
	if r.quick {
		sz = quickSize
	}
	start := time.Now()
	var last time.Duration
	for round := 0; r.ctx.Err() == nil; round++ {
		if budget > 0 {
			if round >= minRounds && time.Since(start)+last > budget*time.Duration(len(ws)) {
				break
			}
		} else if round >= reps {
			break
		}
		roundStart := time.Now()
		for _, c := range cs {
			c.add(r.child(c.w, false), c.w.Requests(sz))
			if traceMode == 1 {
				c.add(r.child(c.w, true), c.w.Requests(sz))
			}
		}
		last = time.Since(roundStart)
	}
	if traceMode == -1 && r.ctx.Err() == nil {
		for _, c := range cs {
			c.add(r.child(c.w, true), c.w.Requests(sz))
		}
	}
	return cs
}

// childRun is one finished child: its report or why it failed.
type childRun struct {
	rep    childReport
	traced bool
	err    error
}

// child runs one child process to completion and collects its report and
// peak resident set.
func (r *runner) child(w benchWorkload, traced bool) childRun {
	args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(r.seed, 10), "-out", r.out}
	if traced {
		args = append(args, "-traced")
	}
	if r.quick {
		args = append(args, "-quick")
	}
	ctx, cancel := context.WithTimeout(r.ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = r.stderr
	stdout, err := cmd.Output()
	if err != nil {
		return childRun{traced: traced, err: fmt.Errorf("child %s: %w", strings.Join(args, " "), err)}
	}
	var rep childReport
	if err := json.Unmarshal(stdout, &rep); err != nil {
		return childRun{traced: traced, err: fmt.Errorf("child %s: parsing report: %w", strings.Join(args, " "), err)}
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.MaxRSSKB = ru.Maxrss // kilobytes on Linux
	}
	return childRun{rep: rep, traced: traced}
}

// collected gathers one workload's children.
type collected struct {
	w                 benchWorkload
	untraced, traced  []childReport
	digest            string
	attempted, failed int
	failures          []string
}

// add records one child. A child that failed, or whose result digest
// differs from the workload's first, counts its requests as failed.
func (c *collected) add(cr childRun, offered int) {
	c.attempted += offered
	err := cr.err
	if err == nil {
		if c.digest == "" {
			c.digest = cr.rep.Digest
		} else if cr.rep.Digest != c.digest {
			err = fmt.Errorf("result digest %s differs from %s (traced=%v)", cr.rep.Digest, c.digest, cr.traced)
		}
	}
	if err != nil {
		c.failed += offered
		c.failures = append(c.failures, err.Error())
		return
	}
	if cr.traced {
		c.traced = append(c.traced, cr.rep)
	} else {
		c.untraced = append(c.untraced, cr.rep)
	}
}

// result summarizes the workload's children into its metrics.
func (c *collected) result() workloadResult {
	res := workloadResult{Digest: c.digest, Attempted: c.attempted, Failed: c.failed,
		Failures: c.failures, Metrics: map[string]summary{}}
	units := map[string]string{}
	for _, m := range append(append(append([]metricDef(nil), endToEnd...), simInfo...), perLayer...) {
		units[m.Name] = m.Unit
	}
	put := func(name string, reps []childReport, f func(childReport) float64) {
		if len(reps) == 0 {
			return
		}
		xs := make([]float64, len(reps))
		for i, rep := range reps {
			xs[i] = f(rep)
		}
		res.Metrics[name] = summarize(xs, units[name])
	}
	u := c.untraced
	put("ns_per_req", u, func(r childReport) float64 { return float64(r.RunNS) / float64(r.Offered) })
	put("setup_s", u, func(r childReport) float64 { return float64(r.SetupNS) / 1e9 })
	put("allocs_per_req", u, func(r childReport) float64 { return float64(r.Allocs) / float64(r.Offered) })
	put("bytes_per_req", u, func(r childReport) float64 { return float64(r.Bytes) / float64(r.Offered) })
	put("peak_rss_mb", u, func(r childReport) float64 { return float64(r.MaxRSSKB) / 1024 })
	put("sim.antt", u, func(r childReport) float64 { return r.ANTT })
	put("sim.viol_pct", u, func(r childReport) float64 { return r.ViolPct })
	put("sim.goodput", u, func(r childReport) float64 { return r.Goodput })

	// Set-up is identical in traced and untraced children, so its split
	// uses them all; GC is read from the untraced ones, where tracing
	// does not inflate it.
	all := append(append([]childReport(nil), u...), c.traced...)
	put("setup.build_stores_s", all, func(r childReport) float64 { return float64(r.BuildStoresNS) / 1e9 })
	put("setup.stats_set_s", all, func(r childReport) float64 { return float64(r.StatsSetNS) / 1e9 })
	put("runtime.gc.cpu_pct", u, func(r childReport) float64 { return r.GCCPUPct })
	put("runtime.gc.cycles", u, func(r childReport) float64 { return float64(r.GCCycles) })
	if len(c.traced) > 0 {
		for _, m := range perLayer {
			if _, ok := c.traced[0].Layers[m.Name]; ok {
				put(m.Name, c.traced, func(r childReport) float64 { return r.Layers[m.Name] })
			}
		}
		if len(u) > 0 {
			traced := make([]float64, len(c.traced))
			for i, r := range c.traced {
				traced[i] = float64(r.RunNS)
			}
			untraced := res.Metrics["ns_per_req"].Median * float64(u[0].Offered)
			ov := 100 * (median(traced)/untraced - 1)
			res.Metrics["trace.overhead_pct"] = summary{Median: ov, Q1: ov, Q3: ov, N: len(traced),
				Unit: units["trace.overhead_pct"]}
		}
	}
	return res
}

// writeResults writes the results file, creating its directory.
func writeResults(path string, rf resultsFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
