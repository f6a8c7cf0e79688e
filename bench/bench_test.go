package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/core"
	"sparsedysta/internal/exp"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// TestMain lets the test binary serve as the benchmark's child process,
// so the quick-mode tests exercise the real re-exec path.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// testSize shrinks every workload to a few hundred requests or fewer.
var testSize = sizing{Div: 200, ProfileSamples: 20, EvalSamples: 60}

// testPipeline builds the AttNN pipeline at test size.
func testPipeline(t *testing.T) *exp.Pipeline {
	t.Helper()
	w, err := lookupWorkload("stream-16x")
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := setup(w, testSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ps[0]
}

// TestWorkloadsTracedMatchUntraced runs every workload at reduced size
// with and without the ledger: the decorated run must produce the
// identical result, and the seams it exists to exercise must record
// calls.
func TestWorkloadsTracedMatchUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			ps, _, err := setup(w, testSize, 1)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := w.Run(ps, testSize, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			l := &ledger{epoch: time.Now()}
			traced, err := w.Run(ps, testSize, 1, l)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Fatal("traced run differs from the untraced one")
			}
			if digest(plain.Result) != digest(traced.Result) {
				t.Fatal("traced digest differs from the untraced one")
			}
			if plain.Offered != w.Requests(testSize) {
				t.Fatalf("offered %d requests, want %d", plain.Offered, w.Requests(testSize))
			}
			for _, id := range []layerID{layerArrival, layerPick, layerLayer} {
				if l.calls[id] == 0 {
					t.Errorf("%s recorded no calls", layerNames[id])
				}
			}
		})
	}
}

// TestSchedulerDecoratorPickPaths pins the scheduler decorator under the
// scan, scalable and reference picks for the whole lineup: identical
// schedules, the same optional interfaces, and every pick counted.
func TestSchedulerDecoratorPickPaths(t *testing.T) {
	p := testPipeline(t)
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
		Requests: 300, RatePerSec: 40, SLOMultiplier: mslo, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]sched.Options{
		"scan":      {RecordTasks: true, RecordTimeline: true},
		"scalable":  {RecordTasks: true, RecordTimeline: true, ScalablePick: true},
		"reference": {RecordTasks: true, RecordTimeline: true, ReferencePick: true},
	}
	for _, spec := range exp.WithOracle(exp.StandardScheds()) {
		for path, opts := range paths {
			t.Run(spec.Name+"/"+path, func(t *testing.T) {
				plain, err := sched.Run(spec.New(p), reqs, opts)
				if err != nil {
					t.Fatal(err)
				}
				l := &ledger{epoch: time.Now()}
				s := spec.New(p)
				ts := traceSched(s, l)
				_, wantX := s.(sched.TaskExtractor)
				if _, gotX := ts.(sched.TaskExtractor); gotX != wantX {
					t.Fatalf("decorator implements TaskExtractor = %v, scheduler %v", gotX, wantX)
				}
				traced, err := sched.Run(ts, reqs, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plain, traced) {
					t.Fatal("decorated schedule differs")
				}
				layers := 0
				for _, r := range reqs {
					layers += r.Trace.NumLayers()
				}
				if l.calls[layerPick] != int64(layers) || l.calls[layerLayer] != int64(layers) {
					t.Fatalf("counted %d picks and %d layer completions, want %d each",
						l.calls[layerPick], l.calls[layerLayer], layers)
				}
				if l.calls[layerArrival] != int64(len(reqs)) {
					t.Fatalf("counted %d arrivals, want %d", l.calls[layerArrival], len(reqs))
				}
			})
		}
	}
}

// pathRecorder is Dysta counting which of its pick paths run.
type pathRecorder struct {
	*core.Dysta
	calls map[string]int
}

func (p pathRecorder) PickNext(ready []*sched.Task, now time.Duration) *sched.Task {
	p.calls["reference"]++
	return p.Dysta.PickNext(ready, now)
}

func (p pathRecorder) PickNextIncremental(q *sched.ReadyQueue, now time.Duration) *sched.Task {
	p.calls["incremental"]++
	return p.Dysta.PickNextIncremental(q, now)
}

func (p pathRecorder) PickNextScalable(q *sched.ReadyQueue, now time.Duration) *sched.Task {
	p.calls["scalable"]++
	return p.Dysta.PickNextScalable(q, now)
}

// TestSchedulerDecoratorKeepsPickPath checks that the engine reaches the
// same pick path through the decorator as without it, under each option
// that selects one.
func TestSchedulerDecoratorKeepsPickPath(t *testing.T) {
	p := testPipeline(t)
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
		Requests: 50, RatePerSec: 40, SLOMultiplier: mslo, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []sched.Options{{}, {ScalablePick: true}, {ReferencePick: true}} {
		plain := pathRecorder{core.NewDefault(p.LUT), map[string]int{}}
		traced := pathRecorder{core.NewDefault(p.LUT), map[string]int{}}
		if _, err := sched.Run(plain, reqs, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := sched.Run(traceSched(traced, &ledger{epoch: time.Now()}), reqs, opts); err != nil {
			t.Fatal(err)
		}
		if len(plain.calls) != 1 || !reflect.DeepEqual(plain.calls, traced.calls) {
			t.Errorf("%+v: pick paths %v undecorated, %v decorated", opts, plain.calls, traced.calls)
		}
	}
}

// TestPolicyDecoratorWiring pins the dispatch, admission and rebalance
// decorators under every load/curve/reset wiring the cluster reads.
func TestPolicyDecoratorWiring(t *testing.T) {
	p := testPipeline(t)
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
		Requests: 400, RatePerSec: 130, SLOMultiplier: mslo, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ dispatch, admission, rebalance string }{
		{"rr", "none", "none"},
		{"jsq", "queue-cap:3", "shed"},
		{"load", "slo", "steal"},
		{"blind-load", "none", "steal"},
		{"rr", "slo", "shed"},
	}
	for _, c := range cases {
		t.Run(c.dispatch+"/"+c.admission+"/"+c.rebalance, func(t *testing.T) {
			run := func(l *ledger) cluster.Result {
				d, err := exp.NewDispatcher(c.dispatch, p)
				if err != nil {
					t.Fatal(err)
				}
				a, err := exp.NewAdmission(c.admission, p)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := exp.NewRebalancer(c.rebalance, p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cluster.Run(dystaEngines(p, l), reqs, cluster.Config{
					Engines:           4,
					Dispatch:          traceDispatch(d, l),
					Admission:         traceAdmission(a, l),
					SignalInterval:    5 * time.Millisecond,
					Rebalance:         traceRebalance(rb, l),
					RebalanceInterval: time.Millisecond,
					MigrationCost:     200 * time.Microsecond,
					Sched:             sched.Options{RecordTasks: true},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain := run(nil)
			l := &ledger{epoch: time.Now()}
			if traced := run(l); !reflect.DeepEqual(plain, traced) {
				t.Fatal("decorated cluster run differs")
			}
			if l.calls[layerDispatch] == 0 || l.calls[layerAdmission] == 0 {
				t.Fatal("dispatch or admission recorded no calls")
			}
			if c.dispatch == "load" && l.loadCalls == 0 {
				t.Fatal("the dispatcher's load estimate was not forwarded")
			}
			if c.rebalance != "none" && l.calls[layerRebalance] == 0 {
				t.Fatal("rebalance recorded no rounds")
			}
		})
	}
}

// TestDispatchDecoratorForwardsReset reuses one decorated round-robin
// dispatcher across two runs: only a forwarded Reset makes them equal.
func TestDispatchDecoratorForwardsReset(t *testing.T) {
	p := testPipeline(t)
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
		Requests: 101, RatePerSec: 90, SLOMultiplier: mslo, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	l := &ledger{epoch: time.Now()}
	d := traceDispatch(cluster.NewRoundRobin(), l)
	var runs []cluster.Result
	for i := 0; i < 2; i++ {
		res, err := cluster.Run(dystaEngines(p, l), reqs, cluster.Config{Engines: 3, Dispatch: d})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("the second run on a reused dispatcher differs: Reset was not forwarded")
	}
}

// bareScheduler hides every optional interface of the scheduler it
// holds, TaskExtractor included.
type bareScheduler struct{ sched.Scheduler }

// TestExtractionRefusalIsPreserved steals work from schedulers without
// TaskExtractor: the decorated run must fail exactly as the plain one.
func TestExtractionRefusalIsPreserved(t *testing.T) {
	p := testPipeline(t)
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
		Requests: 300, RatePerSec: 40, SLOMultiplier: mslo, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	run := func(l *ledger) error {
		rb, err := exp.NewRebalancer("steal", p)
		if err != nil {
			t.Fatal(err)
		}
		// Round-robin onto one slow engine queues work the fast one
		// steals once it idles.
		_, err = cluster.Run(func(int) sched.Scheduler { return traceSched(bareScheduler{core.NewDefault(p.LUT)}, l) },
			reqs, cluster.Config{
				Specs:             []cluster.EngineSpec{{LatencyScale: 1}, {LatencyScale: 4}},
				Dispatch:          cluster.NewRoundRobin(),
				Rebalance:         traceRebalance(rb, l),
				RebalanceInterval: time.Millisecond,
			})
		return err
	}
	plain, traced := run(nil), run(&ledger{epoch: time.Now()})
	if plain == nil || traced == nil || plain.Error() != traced.Error() {
		t.Fatalf("plain error %v, decorated error %v", plain, traced)
	}
}

// TestDigestCoversEveryField perturbs every exported leaf of a populated
// cluster result, one at a time, and requires the digest to change.
func TestDigestCoversEveryField(t *testing.T) {
	p := testPipeline(t)
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
		Requests: 40, RatePerSec: 60, SLOMultiplier: mslo, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(p.LUT) }, reqs,
		cluster.Config{Engines: 2, Sched: sched.Options{RecordTasks: true, RecordTimeline: true}})
	if err != nil {
		t.Fatal(err)
	}
	base := digest(res)
	leaves := 0
	perturbLeaves(reflect.ValueOf(&res).Elem(), "Result", func(path string) {
		leaves++
		if digest(res) == base {
			t.Errorf("perturbing %s leaves the digest unchanged", path)
		}
	})
	if digest(res) != base {
		t.Fatal("perturbLeaves did not restore the result")
	}
	if leaves < 100 {
		t.Fatalf("only %d leaves perturbed", leaves)
	}
}

// perturbLeaves changes every settable leaf under v in turn, calls check
// with the leaf's path, and restores it.
func perturbLeaves(v reflect.Value, path string, check func(string)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				perturbLeaves(v.Field(i), path+"."+f.Name, check)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			perturbLeaves(v.Elem(), path, check)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			orig := v.MapIndex(k)
			cp := reflect.New(orig.Type()).Elem()
			cp.Set(orig)
			perturbLeaves(cp, fmt.Sprintf("%s[%v]", path, k), func(p string) {
				v.SetMapIndex(k, cp)
				check(p)
			})
			v.SetMapIndex(k, orig)
		}
	case reflect.Bool:
		v.SetBool(!v.Bool())
		check(path)
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
		check(path)
		v.SetInt(v.Int() - 1)
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 1)
		check(path)
		v.SetFloat(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "x")
		check(path)
		v.SetString(old)
	}
}

// benchmarkJSON is BENCHMARK.json's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the Go tables
// and to the limits of its format: key sets, name and unit syntax,
// counts, and bounds in (0, 0.25] with setup_s's the largest.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var keys struct {
		Top      map[string]json.RawMessage
		EndToEnd []map[string]any `json:"end_to_end"`
		PerLayer []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &keys.Top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys.Top) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6", len(keys.Top))
	}
	for _, m := range keys.EndToEnd {
		if len(m) != 4 {
			t.Errorf("end_to_end entry %v: want exactly name, unit, better, bound", m)
		}
	}
	for _, m := range keys.PerLayer {
		if len(m) != 3 {
			t.Errorf("per_layer entry %v: want exactly name, unit, better", m)
		}
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the table %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), table %q (%q)",
				i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the table:\n json  %+v\n table %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the table:\n json  %+v\n table %+v", bj.PerLayer, perLayer)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range bj.Workloads {
		checkName(w.Name)
	}
	var setupBound, maxBound float64
	for _, m := range append(append([]metricDef(nil), bj.EndToEnd...), bj.PerLayer...) {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range bj.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s must be declared with the largest bound (%v, max %v)", setupBound, maxBound)
	}
	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if n := len(bj.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", bj.Paths)
	}
	for _, arg := range bj.Command {
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, "bench/") {
			t.Errorf("command argument %q names a file outside the benchmark's paths", arg)
		}
	}
}

// TestQuantilesMatchPython pins summarize to Python's
// statistics.quantiles(xs, n=4).
func TestQuantilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{4, 1, 3, 2, 7, 5, 6}, 2, 4, 6},
	}
	for _, c := range cases {
		s := summarize(c.xs, "ns")
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.xs, s, c.q1, c.m, c.q3)
		}
	}
}

// TestVerdict covers each outcome of the -compare rule.
func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "ns_per_req", Unit: "ns", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim.goodput", Unit: "req/s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 7} }
	cases := []struct {
		m          metricDef
		base, cand summary
		want       string
	}{
		{lower, tight(100), tight(105), "agree"},
		{lower, tight(100), tight(120), "worse"},
		{lower, tight(100), tight(80), "better"},
		{higher, tight(100), tight(80), "worse"},
		{higher, tight(100), tight(120), "better"},
		{lower, tight(100), summary{Median: 105, Q1: 80, Q3: 125, N: 7}, "unresolved"},
		{lower, tight(100), summary{Median: 101, Q1: 101, Q3: 101, N: 1}, "unresolved"},
		{lower, summary{Median: 3, N: 1}, summary{Median: 3, N: 1}, "agree"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.base, c.cand); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.m.Name, c.base.Median, c.cand.Median, got, c.want)
		}
	}
}

// TestCompareFlagsWorseAndDigest runs -compare on hand-made results.
func TestCompareFlagsWorseAndDigest(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ns float64, dig string) string {
		rf := resultsFile{Seed: 1, Workloads: map[string]workloadResult{
			"stream-16x": {Digest: dig, Metrics: map[string]summary{
				"ns_per_req": {Median: ns, Q1: ns, Q3: ns, N: 7, Unit: "ns"}}}}}
		path := filepath.Join(dir, name)
		if err := writeResults(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1000, "d1")
	var out bytes.Buffer
	if err := compare(&out, a, write("same.json", 1020, "d1")); err != nil {
		t.Fatalf("agreeing runs: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "agree") {
		t.Fatalf("no agree verdict:\n%s", out.String())
	}
	if err := compare(&out, a, write("slow.json", 1500, "d1")); err == nil {
		t.Fatal("a 50% slowdown passed")
	}
	if err := compare(&out, a, write("other.json", 1000, "d2")); err == nil {
		t.Fatal("a digest change passed")
	}
}

// TestQuickMode is the tier-1 smoke run of the benchmark itself: every
// workload at ~1% scale in real child processes, every declared metric
// printed with its unit, and no failed request.
func TestQuickMode(t *testing.T) {
	start := time.Now()
	var out, errs bytes.Buffer
	if code := parentMain([]string{"-quick", "-out", t.TempDir()}, &out, &errs); code != 0 {
		t.Fatalf("quick run exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
	}
	for _, w := range workloads {
		for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w.Name) + `\s+` + regexp.QuoteMeta(m.Name) +
				`\s+\S+\s+` + regexp.QuoteMeta(m.Unit) + `\s`)
			if !re.MatchString(out.String()) {
				t.Errorf("%s %s (%s) not printed", w.Name, m.Name, m.Unit)
			}
		}
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w.Name) + `\s+failed_pct\s+0\s+%`)
		if !re.MatchString(out.String()) {
			t.Errorf("%s: failed_pct is not 0", w.Name)
		}
	}
	t.Logf("quick run took %v", time.Since(start))
}

// TestFinalLine checks the single-workload run's last line: the result
// object with every end-to-end metric, or with -trace 1 every per-layer
// metric.
func TestFinalLine(t *testing.T) {
	for mode, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var out, errs bytes.Buffer
		args := []string{"-quick", "--workload", "serving-control", "--seed", "2", "--trace", mode, "-out", t.TempDir()}
		if code := parentMain(args, &out, &errs); code != 0 {
			t.Fatalf("-trace %s exited %d\n%s", mode, code, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]lineValue
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("-trace %s: last line %q: %v", mode, lines[len(lines)-1], err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 ||
			got.Failed == nil || *got.Failed != 0 {
			t.Fatalf("-trace %s: %s", mode, lines[len(lines)-1])
		}
		if len(got.Metrics) != len(defs) {
			t.Errorf("-trace %s: %d metrics, want %d", mode, len(got.Metrics), len(defs))
		}
		for _, m := range defs {
			if v, ok := got.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("-trace %s: metric %s missing or not in %s", mode, m.Name, m.Unit)
			}
		}
	}
}
