package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef declares one metric; BENCHMARK.json mirrors these tables.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured on
// untraced children. Bound is the share of the parent's median by which
// a metric may worsen before a change counts as a regression; each is
// about three times the widest spread seen over ten seeds (README.md),
// except ns_per_req, whose spread the host's drift keeps near 0.1.
var endToEnd = []metricDef{
	// Host time per simulated request, from request generation to the
	// final Result, set-up excluded.
	{"ns_per_req", "ns", "lower", 0.24},
	// Phase 1 set-up: trace stores, profiling LUT, estimator.
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_req", "allocs", "lower", 0.03},
	{"bytes_per_req", "B", "lower", 0.08},
	// The child process's peak resident set (Maxrss).
	{"peak_rss_mb", "MB", "lower", 0.13},
	// Simulated results: Dysta's (averaged over paper-grid's points), or
	// cluster-wide. A change that only speeds up the simulator leaves
	// them, and the digest, identical.
	{"sim.antt", "ratio", "lower", 0.13},
	{"sim.goodput", "req/s", "higher", 0.05},
}

// simInfo are simulated results printed beside the end-to-end metrics
// but not bounded: stream-16x violates no SLO, and a metric that reads 0
// has no share to bound. -compare holds it exact through the digest.
var simInfo = []metricDef{
	{Name: "sim.viol_pct", Unit: "%", Better: "lower"},
}

// perLayer are the traced child's per-layer metrics. Times are host
// nanoseconds per simulated request with the empty-span cost removed;
// a layer a workload never calls reads 0.
var perLayer = []metricDef{
	{Name: "setup.build_stores_s", Unit: "s", Better: "lower"},
	{Name: "setup.stats_set_s", Unit: "s", Better: "lower"},
	{Name: "workload.next.ns", Unit: "ns/req", Better: "lower"},
	{Name: "workload.next.calls_per_req", Unit: "calls/req", Better: "lower"},
	{Name: "sched.arrival.ns", Unit: "ns/req", Better: "lower"},
	{Name: "sched.pick.ns", Unit: "ns/req", Better: "lower"},
	{Name: "sched.pick.calls_per_req", Unit: "calls/req", Better: "lower"},
	{Name: "sched.pick.depth_mean", Unit: "tasks", Better: "lower"},
	{Name: "sched.layer.ns", Unit: "ns/req", Better: "lower"},
	{Name: "sched.extract.calls", Unit: "count", Better: "lower"},
	{Name: "cluster.dispatch.ns", Unit: "ns/req", Better: "lower"},
	{Name: "cluster.load_est.calls_per_req", Unit: "calls/req", Better: "lower"},
	{Name: "cluster.curve.calls_per_req", Unit: "calls/req", Better: "lower"},
	{Name: "cluster.admission.ns", Unit: "ns/req", Better: "lower"},
	{Name: "cluster.admission.admit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.rebalance.ns", Unit: "ns/req", Better: "lower"},
	{Name: "cluster.rebalance.moves_per_call", Unit: "moves/call", Better: "higher"},
	// Traced wall minus the timed layers and the spans' own cost: engine
	// step, event heap, SignalBoard, fault injector, capture, aggregation.
	{Name: "engine.self_ns_per_req", Unit: "ns/req", Better: "lower"},
	// Read around the run of every child through runtime/metrics; the
	// reported values come from the untraced children.
	{Name: "runtime.gc.cpu_pct", Unit: "%", Better: "lower"},
	{Name: "runtime.gc.cycles", Unit: "count", Better: "lower"},
	// Traced wall time over the untraced median.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// summary is a metric's median and quartiles over n samples, with the
// samples themselves in run order.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// summarize returns the median and quartiles of xs (n = 0 for none).
// The quartiles follow Python's statistics.quantiles(xs, n=4), the
// exclusive method.
func summarize(xs []float64, unit string) summary {
	s := summary{N: len(xs), Unit: unit, Samples: append([]float64(nil), xs...)}
	if len(xs) == 0 {
		return s
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	s.Median = median(d)
	if len(d) == 1 {
		s.Q1, s.Q3 = d[0], d[0]
		return s
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// workloadResult is one workload's measured metrics.
type workloadResult struct {
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// resultsFile is bench-out/results.json, the input of -compare.
type resultsFile struct {
	Seed       uint64                    `json:"seed"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

// printResult writes every metric of one workload as
// "workload metric median unit [q1 q3 n]": end-to-end metrics, the
// unbounded simulated results, failed_pct, then the per-layer metrics.
func printResult(w io.Writer, name string, r workloadResult) {
	lines := func(defs []metricDef) {
		for _, m := range defs {
			if s, ok := r.Metrics[m.Name]; ok {
				fmt.Fprintf(w, "%-16s %-32s %14.6g %-10s [%.6g %.6g %d]\n",
					name, m.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
			}
		}
	}
	lines(endToEnd)
	lines(simInfo)
	fmt.Fprintf(w, "%-16s %-32s %14.6g %-10s [%d of %d requests]\n",
		name, "failed_pct", r.failedPct(), "%", r.Failed, r.Attempted)
	lines(perLayer)
	fmt.Fprintf(w, "%-16s %-32s %s\n", name, "digest", r.Digest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-16s FAILED: %s\n", name, f)
	}
}

// failedPct is the share of offered requests that ran in a failed child.
func (r workloadResult) failedPct() float64 {
	if r.Attempted == 0 {
		return 100
	}
	return 100 * float64(r.Failed) / float64(r.Attempted)
}

// lineValue is one metric in the final JSON line.
type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the single-workload run's final output line: the
// end-to-end metrics, or with tracing the per-layer ones, as medians.
func finalLine(r workloadResult, defs []metricDef) ([]byte, error) {
	metrics := make(map[string]lineValue, len(defs))
	for _, m := range defs {
		metrics[m.Name] = lineValue{r.Metrics[m.Name].Median, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]lineValue `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
}

// readResults loads a results.json.
func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rf, nil
}

// verdict compares metric m between a base and a candidate run. Each
// median's standard error is estimated from its quartiles (IQR/1.349
// for the rep-to-rep deviation, times 1.2533/√n for a median). The
// change is unresolved when the spread, twice the standard error of the
// difference as a share of the base median, is wider than the bound, or
// when either side has fewer than three reps and the medians differ.
// Otherwise it is worse or better when the medians differ by more than
// the bound in that direction, and agrees when they do not.
func verdict(m metricDef, base, cand summary) string {
	se := func(s summary) float64 {
		return (s.Q3 - s.Q1) / 1.349 * 1.2533 / math.Sqrt(float64(max(s.N, 1)))
	}
	if base.Median == cand.Median {
		return "agree"
	}
	if base.N < 3 || cand.N < 3 ||
		2*math.Hypot(se(base), se(cand)) > m.Bound*math.Abs(base.Median) {
		return "unresolved"
	}
	worse := cand.Median - base.Median
	if m.Better == "higher" {
		worse = -worse
	}
	if base.Median != 0 {
		worse /= math.Abs(base.Median)
	} else if worse != 0 {
		worse = math.Copysign(math.Inf(1), worse)
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case worse < -m.Bound:
		return "better"
	}
	return "agree"
}

// compare prints a verdict for every workload and end-to-end metric the
// two results files share, plus whether their result digests agree. It
// fails when any metric is worse or any digest differs.
func compare(w io.Writer, basePath, candPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return err
	}
	var bad []string
	shared := 0
	for _, wl := range workloads {
		b, okb := base.Workloads[wl.Name]
		c, okc := cand.Workloads[wl.Name]
		if !okb || !okc {
			continue
		}
		shared++
		for _, m := range endToEnd {
			bs, okb := b.Metrics[m.Name]
			cs, okc := c.Metrics[m.Name]
			if !okb || !okc {
				continue
			}
			v := verdict(m, bs, cs)
			fmt.Fprintf(w, "%-16s %-16s %14.6g -> %-14.6g %-6s bound %4.0f%%  %s\n",
				wl.Name, m.Name, bs.Median, cs.Median, m.Unit, 100*m.Bound, v)
			if v == "worse" {
				bad = append(bad, wl.Name+" "+m.Name+" worse")
			}
		}
		d := "agree"
		if b.Digest != c.Digest {
			d = "DIFFER"
			bad = append(bad, wl.Name+" digest differs")
		}
		fmt.Fprintf(w, "%-16s %-16s %s -> %s  %s\n", wl.Name, "digest", b.Digest, c.Digest, d)
	}
	if shared == 0 {
		return fmt.Errorf("compare: %s and %s share no workload", basePath, candPath)
	}
	if len(bad) > 0 {
		return fmt.Errorf("compare: %s", strings.Join(bad, "; "))
	}
	return nil
}
