package exp

import (
	"flag"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/cluster"
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
