package exp

import (
	"flag"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/sched"
)

// TestRegisterFlags binds every shared flag straight to its Options
// field: one command line that passes each flag yields exactly the
// options it spells, and a flag left out keeps the field's value.
func TestRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := Options{Seeds: 3, Engines: 1, Dispatch: "rr"}
	o.RegisterFlags(fs)
	if def := fs.Lookup("engines").DefValue; def != "1" {
		t.Errorf("-engines default %q, want the bound count 1", def)
	}
	if def := fs.Lookup("dispatch").DefValue; def != "rr" {
		t.Errorf("-dispatch default %q, want the bound rr", def)
	}
	args := []string{
		"-workers", "3", "-engines", "2x1,1x2", "-dispatch", "jsq",
		"-signal-interval", "5ms", "-admission", "slo",
		"-rebalance", "steal", "-rebalance-interval", "1ms",
		"-migration-cost", "200us", "-migration-budget", "7",
		"-churn", "-mtbf", "2s", "-mttr", "50ms", "-retry-max", "4",
		"-traffic", "mmpp", "-burst", "6",
		"-autoscale", "-scale-min", "2", "-scale-max", "3",
		"-capture", "bounded",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Options{
		Seeds:             3,
		Workers:           3,
		Engines:           3,
		EngineSpecs:       []cluster.EngineSpec{{LatencyScale: 1}, {LatencyScale: 1}, {LatencyScale: 2}},
		Dispatch:          "jsq",
		SignalInterval:    5 * time.Millisecond,
		Admission:         "slo",
		Rebalance:         "steal",
		RebalanceInterval: time.Millisecond,
		MigrationCost:     200 * time.Microsecond,
		MigrationBudget:   7,
		Churn:             true,
		MTBF:              2 * time.Second,
		MTTR:              50 * time.Millisecond,
		RetryMax:          4,
		Traffic:           "mmpp",
		Burst:             6,
		Autoscale:         true,
		ScaleMin:          2,
		ScaleMax:          3,
		Capture:           "bounded",
	}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("parsed options\n%+v\nwant\n%+v", o, want)
	}
	if got := fs.Lookup("engines").Value.String(); got != "2x1,1x2" {
		t.Errorf("-engines echoes %q, want the text as given", got)
	}
	// The command line above must exercise every declared flag.
	passed := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { passed[f.Name] = true })
	fs.VisitAll(func(f *flag.Flag) {
		if !passed[f.Name] {
			t.Errorf("-%s is declared but not covered here", f.Name)
		}
	})
}

// TestClusterShape pins the one rule that decides whether a run goes
// through the cluster layer and how big that cluster is.
func TestClusterShape(t *testing.T) {
	_, mix, _ := ParseEngines("1x1,2x2")
	for _, c := range []struct {
		name string
		mod  func(*Options)
		want ClusterShape
	}{
		{"defaults", func(o *Options) {}, ClusterShape{false, 1, 1, 1}},
		{"one engine", func(o *Options) { o.Engines = 1 }, ClusterShape{false, 1, 1, 1}},
		{"neutral policies", func(o *Options) { o.Admission = "none"; o.Rebalance = "none" }, ClusterShape{false, 1, 1, 1}},
		{"engines", func(o *Options) { o.Engines = 4 }, ClusterShape{true, 4, 1, 4}},
		{"one spec", func(o *Options) { o.EngineSpecs = mix[:1] }, ClusterShape{true, 1, 1, 1}},
		{"mix", func(o *Options) { o.EngineSpecs = mix }, ClusterShape{true, 3, 1, 3}},
		{"admission", func(o *Options) { o.Admission = "slo" }, ClusterShape{true, 1, 1, 1}},
		{"signal interval", func(o *Options) { o.SignalInterval = time.Millisecond }, ClusterShape{true, 1, 1, 1}},
		{"rebalance", func(o *Options) { o.Rebalance = "steal" }, ClusterShape{true, 1, 1, 1}},
		{"churn", func(o *Options) { o.Churn = true }, ClusterShape{true, 1, 1, 1}},
		{"autoscale", func(o *Options) { o.Engines = 4; o.Autoscale = true; o.ScaleMin = 2 }, ClusterShape{true, 4, 2, 4}},
		{"autoscale range", func(o *Options) { o.Engines = 4; o.Autoscale = true; o.ScaleMax = 3 }, ClusterShape{true, 4, 1, 3}},
	} {
		o := tiny()
		c.mod(&o)
		if got := o.Shape(); got != c.want {
			t.Errorf("%s: %+v, want %+v", c.name, got, c.want)
		}
	}
}

// FuzzParseEngines: no input panics, an accepted one yields 1 to
// MaxEngines engines (a blank one: none) with finite positive scales and
// either nil specs or one per engine, and every rejection names -engines.
func FuzzParseEngines(f *testing.F) {
	for _, s := range append([]string{"4", "2x1,2x2", "1x0.5,3", "", " ", "1024", "1000x1,24x2"}, parseEnginesRejects...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, specs, err := ParseEngines(s)
		switch {
		case err != nil:
			if !strings.Contains(err.Error(), "-engines") {
				t.Fatalf("%q: rejection %q does not name -engines", s, err)
			}
			return
		case strings.TrimSpace(s) == "":
			if n != 0 || specs != nil {
				t.Fatalf("blank %q: n=%d, %d specs", s, n, len(specs))
			}
			return
		case n < 1 || n > MaxEngines:
			t.Fatalf("%q: %d engines outside [1, %d]", s, n, MaxEngines)
		case specs != nil && len(specs) != n:
			t.Fatalf("%q: %d specs for %d engines", s, len(specs), n)
		}
		for i, sp := range specs {
			if !(sp.LatencyScale > 0 && sp.LatencyScale < math.Inf(1)) {
				t.Fatalf("%q: engine %d latency scale %v", s, i, sp.LatencyScale)
			}
		}
	})
}

// fuzzFlag is one shared flag and the values FuzzOptions draws for it.
type fuzzFlag struct {
	name   string
	values []string
}

// fuzzFlags holds settings that run, edge values, and bad ones Validate
// must reject. A replay trace comes only from testdata.
var fuzzFlags = []fuzzFlag{
	{"workers", []string{"0", "1", "3", "-2"}},
	{"engines", []string{"1", "2", "4", "2x1,1x2", "1x0.5", "2x1e12", "1x1e13"}},
	{"dispatch", []string{"rr", "jsq", "load", "blind-load", "bogus"}},
	{"signal-interval", []string{"0", "5ms", "1us", "-5ms"}},
	{"admission", []string{"none", "queue-cap", "queue-cap:2", "queue-cap:0", "slo", "bogus"}},
	{"rebalance", []string{"none", "steal", "shed", "bogus"}},
	{"rebalance-interval", []string{"0", "1ms", "-1ms"}},
	{"migration-cost", []string{"0", "200us", "-5ms"}},
	{"migration-budget", []string{"0", "3", "-1"}},
	{"churn", []string{"true", "false"}},
	{"mtbf", []string{"1s", "20ms", "0", "-1s"}},
	{"mttr", []string{"100ms", "5ms", "0"}},
	{"retry-max", []string{"0", "2", "-1"}},
	{"traffic", []string{"poisson", "mmpp", "diurnal", "replay:testdata/arrivals.csv", "replay:testdata/missing.csv", "bogus"}},
	{"burst", []string{"0", "4", "0.5", "NaN"}},
	{"autoscale", []string{"true", "false"}},
	{"scale-min", []string{"0", "1", "2", "-1"}},
	{"scale-max", []string{"0", "2", "4", "9"}},
	{"capture", []string{"full", "bounded", "bogus"}},
}

// fuzzInput encodes a command line of fuzzFlags values as FuzzOptions'
// bytes: one (flag, value) index pair per flag.
func fuzzInput(tb testing.TB, args ...string) []byte {
	var data []byte
	for i := 0; i+1 < len(args); i += 2 {
		fi := slices.IndexFunc(fuzzFlags, func(f fuzzFlag) bool { return "-"+f.name == args[i] })
		if fi < 0 {
			tb.Fatalf("no fuzz table for %s", args[i])
		}
		vi := slices.Index(fuzzFlags[fi].values, args[i+1])
		if vi < 0 {
			tb.Fatalf("no %s %s in its fuzz table", args[i], args[i+1])
		}
		data = append(data, byte(fi), byte(vi))
	}
	return data
}

// FuzzOptions decodes its bytes into a command line for RegisterFlags,
// each byte pair picking a flag and one of its fuzzFlags values. A parse
// error is the flag package's, which names the flag. Every Validate
// rejection must name a flag, and every accepted configuration must run
// one tiny cell, on a pipeline built once, without a panic: a returned
// error is allowed (-engines 2x1e12 overflows the engine clock). A cell
// that succeeds must conserve its outcomes, and return the same Result
// when run again from nothing and when run on a grid worker that first
// ran another spec's cell.
func FuzzOptions(f *testing.F) {
	for _, args := range [][]string{
		{"-engines", "2x1e12"},
		{"-engines", "4", "-dispatch", "load", "-rebalance", "steal", "-rebalance-interval", "1ms",
			"-migration-cost", "200us", "-churn", "true", "-mtbf", "20ms", "-retry-max", "2"},
		{"-engines", "4", "-autoscale", "true", "-scale-min", "2", "-traffic", "mmpp", "-burst", "4", "-capture", "bounded"},
		{"-engines", "2x1,1x2", "-admission", "slo", "-signal-interval", "5ms", "-traffic", "replay:testdata/arrivals.csv"},
		{"-admission", "queue-cap:0"},
		{"-traffic", "replay:testdata/missing.csv"},
		{"-rebalance", "shed"},
	} {
		f.Add(fuzzInput(f, args...))
	}
	p, err := NewPipeline(workloadAttNN(), tiny(), 7)
	if err != nil {
		f.Fatal(err)
	}
	specs := WithOracle(StandardScheds())
	f.Fuzz(func(t *testing.T, data []byte) {
		var args []string
		for i := 0; i+1 < len(data); i += 2 {
			fl := fuzzFlags[int(data[i])%len(fuzzFlags)]
			args = append(args, "-"+fl.name+"="+fl.values[int(data[i+1])%len(fl.values)])
		}
		o := tiny()
		o.Requests = 30
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			return
		}
		if err := o.Validate(); err != nil {
			named := false
			fs.VisitAll(func(fl *flag.Flag) { named = named || strings.Contains(err.Error(), "-"+fl.Name) })
			if !named {
				t.Fatalf("%q: rejection %q names no flag", args, err)
			}
			return
		}
		si := len(data) % len(specs)
		pt := Point{Rate: 60, MSLO: 10}
		res, err := p.freshCell(specs[si], pt, 0, o, nil)
		if err != nil {
			return
		}
		if err := sched.CheckOutcomeConservation(res); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		again, err := p.freshCell(specs[si], pt, 0, o, nil)
		if err != nil || !reflect.DeepEqual(again, res) {
			t.Fatalf("%q: a second run returned %+v (error %v), want %+v", args, again, err, res)
		}
		w := gridWorker{scheds: make([]sched.Scheduler, len(specs))}
		other := (si + 1) % len(specs)
		slot := make([]sched.ModelMetrics, modelCount(p.Scenario))
		_, _ = p.runCell(specs[other], pt, 0, o, nil, &w, other, slot) // a failed cell leaves the worker re-armable
		warm, err := p.runCell(specs[si], pt, 0, o, nil, &w, si, slot)
		if err != nil || !reflect.DeepEqual(warm, res) {
			t.Fatalf("%q: after a %s cell, a grid worker returned %+v (error %v), want %+v",
				args, specs[other].Name, warm, err, res)
		}
	})
}
