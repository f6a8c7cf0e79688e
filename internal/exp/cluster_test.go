package exp

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// TestClusterCellMatchesSingleEngine: a 1-engine cluster cell must be
// byte-identical to the plain sched.Run cell for every dispatch policy —
// the exp-layer end of the cluster equivalence chain (runCell routes
// Engines <= 1 to sched.Run, so this also pins that gate: a 1-engine
// cluster and the direct path agree, whichever runs).
func TestClusterCellMatchesSingleEngine(t *testing.T) {
	opts := tiny()
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := StandardScheds()
	want, err := p.RunPoint(specs, 30, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range DispatchPolicies {
		// Engines=1 through the options surface.
		o := opts
		o.Engines = 1
		o.Dispatch = policy
		got, err := p.RunPoint(specs, 30, 10, o)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(got)
		if string(wantJSON) != string(b) {
			t.Errorf("dispatch=%s engines=1 diverges from the single-engine path", policy)
		}
		// A true 1-engine cluster.Run cell, via the same dispatcher
		// factory runCell uses.
		for _, spec := range specs {
			d, err := NewDispatcher(policy, p)
			if err != nil {
				t.Fatal(err)
			}
			reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
				Requests: opts.Requests, RatePerSec: 30, SLOMultiplier: 10, Seed: cellSeed(0)})
			if err != nil {
				t.Fatal(err)
			}
			cres, err := cluster.Run(func(int) sched.Scheduler { return spec.New(p) }, reqs,
				cluster.Config{Engines: 1, Dispatch: d})
			if err != nil {
				t.Fatal(err)
			}
			direct, err := sched.Run(spec.New(p), reqs, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cres.Result, direct) {
				t.Errorf("%s/%s: 1-engine cluster cell diverges from sched.Run", spec.Name, policy)
			}
		}
	}
}

// TestClusterGridRuns: the parallel grid runner executes multi-engine
// cells, all requests complete, and results are deterministic across
// worker counts.
func TestClusterGridRuns(t *testing.T) {
	opts := tiny()
	opts.Engines = 3
	opts.Dispatch = "load"
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := StandardScheds()
	seq := opts
	seq.Workers = 1
	want, err := p.RunPoint(specs, 90, 10, seq)
	if err != nil {
		t.Fatal(err)
	}
	par := opts
	par.Workers = 8
	got, err := p.RunPoint(specs, 90, 10, par)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Error("multi-engine grid results differ across worker counts")
	}
	for name, r := range got {
		if r.Requests != opts.Requests {
			t.Errorf("%s: %d of %d requests completed", name, r.Requests, opts.Requests)
		}
	}
}

// TestUnknownDispatchRejected: a bad policy name surfaces as an error from
// RunPoint and RunSeeds — also on single-engine runs, which never dispatch but must not silently
// swallow a misconfiguration.
func TestUnknownDispatchRejected(t *testing.T) {
	opts := tiny()
	opts.Dispatch = "nope"
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, engines := range []int{0, 1, 2} {
		o := opts
		o.Engines = engines
		if _, err := p.RunPoint(StandardScheds()[:1], 30, 10, o); err == nil {
			t.Fatalf("unknown dispatch policy accepted on %d engines", engines)
		}
		if _, err := p.RunSeeds(StandardScheds()[0], 30, 10, o); err == nil {
			t.Fatalf("RunSeeds accepted an unknown dispatch policy on %d engines", engines)
		}
	}
}

// TestScaleEnginesRegistered: the experiment is reachable through Lookup
// and produces the scaling table plus the two Dysta series.
func TestScaleEnginesRegistered(t *testing.T) {
	if _, err := Lookup("scale-engines"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range AllIDs() {
		if id == "scale-engines" {
			found = true
		}
	}
	if !found {
		t.Error("scale-engines missing from AllIDs")
	}
}

// TestScaleEnginesThroughputScales runs the experiment at a tiny protocol
// and checks the headline property: Dysta's throughput grows with the
// engine count under every dispatch policy.
func TestScaleEnginesThroughputScales(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	opts := tiny()
	opts.Requests = 200
	arts, err := ScaleEngines(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 3 {
		t.Fatalf("got %d artifacts", len(arts))
	}
	stp, ok := arts[1].(*Series)
	if !ok || stp.YLabel != "throughput (inf/s)" {
		t.Fatalf("second artifact is not the throughput series: %+v", arts[1])
	}
	for policy, ys := range stp.Lines {
		if len(ys) != len(EngineCounts) {
			t.Fatalf("%s: %d points, want %d", policy, len(ys), len(EngineCounts))
		}
		if ys[len(ys)-1] <= ys[0] {
			t.Errorf("%s: throughput did not scale with engines: %v", policy, ys)
		}
	}
	// The table's engine column is well-formed.
	tbl := arts[0].(*Table)
	for _, row := range tbl.Rows {
		if _, err := strconv.Atoi(row[1]); err != nil {
			t.Fatalf("bad engines cell %q", row[1])
		}
	}
}

// parseEnginesRejects are -engines values ParseEngines must reject, each
// with an error naming the flag; FuzzParseEngines seeds its corpus with
// them.
var parseEnginesRejects = []string{"0", "-2", "2x0", "2x-1", "x2", "2x", "ax1", "2x1,,3",
	"2xNaN", "2xnan", "1xInf", "1x+Inf", "1x-Inf", "1x1,1xInf", "1x1e400",
	"1025", "99999999999", "99999999999x1", "1025x1", "1000x1,25x2", "1024,1",
	"99999999999999999999", "9223372036854775807x1,9223372036854775807x1"}

// TestParseEngines covers the homogeneous and heterogeneous -engines
// syntax and its error cases.
func TestParseEngines(t *testing.T) {
	n, specs, err := ParseEngines("4")
	if err != nil || n != 4 || specs != nil {
		t.Errorf("plain count: n=%d specs=%v err=%v", n, specs, err)
	}
	n, specs, err = ParseEngines("2x1,2x2")
	if err != nil || n != 4 || len(specs) != 4 {
		t.Fatalf("mixed: n=%d specs=%v err=%v", n, specs, err)
	}
	if specs[0].LatencyScale != 1 || specs[3].LatencyScale != 2 {
		t.Errorf("mixed scales %v", specs)
	}
	n, specs, err = ParseEngines("1x0.5,3")
	if err != nil || n != 4 || specs[0].LatencyScale != 0.5 || specs[3].LatencyScale != 1 {
		t.Errorf("scale-and-plain: n=%d specs=%v err=%v", n, specs, err)
	}
	if n, specs, err = ParseEngines(""); err != nil || n != 0 || specs != nil {
		t.Errorf("empty: n=%d specs=%v err=%v", n, specs, err)
	}
	// The bound holds per term and in total, on either form.
	if n, _, err = ParseEngines("1024"); err != nil || n != MaxEngines {
		t.Errorf("count at the bound: n=%d err=%v", n, err)
	}
	if n, specs, err = ParseEngines("1000x1,24x2"); err != nil || n != MaxEngines || len(specs) != MaxEngines {
		t.Errorf("mix at the bound: n=%d err=%v", n, err)
	}
	for _, bad := range parseEnginesRejects {
		_, _, err := ParseEngines(bad)
		if err == nil {
			t.Errorf("%q accepted", bad)
		} else if !strings.Contains(err.Error(), "-engines") {
			t.Errorf("%q: rejection %q does not name -engines", bad, err)
		}
	}
}

// TestNewAdmission covers the admission policy factory.
func TestNewAdmission(t *testing.T) {
	opts := tiny()
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"":            "none",
		"none":        "none",
		"queue-cap":   "queue-cap:16",
		"queue-cap:4": "queue-cap:4",
		"slo":         "slo",
	} {
		a, err := NewAdmission(name, p)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if a.Name() != want {
			t.Errorf("%q -> %q, want %q", name, a.Name(), want)
		}
	}
	for _, bad := range []string{"nope", "queue-cap:0", "queue-cap:x"} {
		if _, err := NewAdmission(bad, p); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestNeutralClusterOptionsBitIdentical is the options-level equivalence
// anchor: explicit homogeneous EngineSpecs + SignalInterval 0 + admission
// "none" must be byte-identical to the plain Engines count across the
// whole grid-runner path.
func TestNeutralClusterOptionsBitIdentical(t *testing.T) {
	opts := tiny()
	opts.Engines = 3
	opts.Dispatch = "load"
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := StandardScheds()[:3]
	want, err := p.RunPoint(specs, 90, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	neutral := opts
	neutral.Engines = 0
	_, neutral.EngineSpecs, err = ParseEngines("3x1")
	if err != nil {
		t.Fatal(err)
	}
	neutral.SignalInterval = 0
	neutral.Admission = "none"
	got, err := p.RunPoint(specs, 90, 10, neutral)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Error("neutral cluster knobs diverge from the plain engine count")
	}
}

// TestStaleSignalsExperiment runs the sweep at a tiny protocol under the
// parallel runner and checks the structural invariants: every policy has
// a point per interval, and round-robin — which never reads the signals —
// is exactly interval-invariant.
func TestStaleSignalsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	opts := tiny()
	opts.Requests = 150
	opts.Workers = 4
	arts, err := StaleSignals(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 {
		t.Fatalf("got %d artifacts", len(arts))
	}
	viol, ok := arts[1].(*Series)
	if !ok || viol.YLabel != "SLO violation rate (%)" {
		t.Fatalf("second artifact is not the violation series: %+v", arts[1])
	}
	for policy, ys := range viol.Lines {
		if len(ys) != len(SignalIntervals) {
			t.Fatalf("%s: %d points, want %d", policy, len(ys), len(SignalIntervals))
		}
	}
	for i, y := range viol.Lines["rr"] {
		if y != viol.Lines["rr"][0] {
			t.Errorf("rr is not interval-invariant: point %d is %v vs %v", i, y, viol.Lines["rr"][0])
		}
	}
}

// TestHeteroScaleExperiment runs the composition sweep at a tiny protocol
// under the parallel runner: every (mix, policy) cell produces a row, and
// the uniform mix reproduces the plain homogeneous 4-engine cluster
// byte-identically (composition "4x1" is the neutral case).
func TestHeteroScaleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	opts := tiny()
	opts.Requests = 150
	opts.Workers = 4
	arts, err := HeteroScale(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 {
		t.Fatalf("got %d artifacts", len(arts))
	}
	tbl := arts[0].(*Table)
	if len(tbl.Rows) != len(HeteroMixes)*3 {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), len(HeteroMixes)*3)
	}
	viol := arts[1].(*Series)
	for policy, ys := range viol.Lines {
		if len(ys) != len(HeteroMixes) {
			t.Fatalf("%s: %d points, want %d", policy, len(ys), len(HeteroMixes))
		}
	}

	// The uniform "4x1" column equals a plain Engines=4 run.
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	plain := opts
	plain.Engines = 4
	plain.Dispatch = "load"
	want, err := p.RunPoint(dystaOnly(), 132, 10, plain)
	if err != nil {
		t.Fatal(err)
	}
	if got := viol.Lines["load"][0]; got != 100*want["Dysta"].ViolationRate {
		t.Errorf("uniform mix viol %v differs from plain 4-engine run %v",
			got, 100*want["Dysta"].ViolationRate)
	}
}

// TestNewExperimentsRegistered: both new ids resolve and appear in the
// scaling-study listing.
func TestNewExperimentsRegistered(t *testing.T) {
	for _, id := range []string{"stale-signals", "hetero-scale"} {
		if _, err := Lookup(id); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, got := range ScaleIDs() {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missing from ScaleIDs", id)
		}
	}
}

// TestUnknownAdmissionRejected: a bad policy name surfaces as an error
// from the grid runner — also on a single-engine run, where admission
// routes the cell through the cluster path instead of being silently
// ignored.
func TestUnknownAdmissionRejected(t *testing.T) {
	opts := tiny()
	opts.Admission = "yolo"
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, engines := range []int{0, 1, 2} {
		o := opts
		o.Engines = engines
		if _, err := p.RunPoint(StandardScheds()[:1], 30, 10, o); err == nil {
			t.Fatalf("unknown admission policy accepted on %d engines", engines)
		}
	}
}

// TestSingleEngineAdmissionApplies: an admission policy on the default
// single accelerator actually sheds (the cell routes through a 1-engine
// cluster rather than the admission-blind direct path).
func TestSingleEngineAdmissionApplies(t *testing.T) {
	opts := tiny()
	opts.Admission = "queue-cap:1"
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := p.RunPoint(StandardScheds()[:1], 120, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rs["FCFS"]
	if r.Rejected == 0 {
		t.Error("cap-1 admission on a saturated single engine shed nothing")
	}
	if r.Requests+r.Rejected != opts.Requests {
		t.Errorf("completed %d + rejected %d != offered %d", r.Requests, r.Rejected, opts.Requests)
	}
}
