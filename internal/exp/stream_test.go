package exp

import (
	"encoding/json"
	"testing"
	"time"
)

// TestStreamGridMatchesMaterialized: a grid run with streaming arrivals
// must be byte-identical to the materialized path — same cells, same
// seeds, same floats — across single-engine, clustered and churning
// configurations, and across worker counts (streamed cells must stay a
// pure function of the seed index). This pins the exp-layer half of the
// streaming equivalence: workload.NewStream yields exactly the requests
// workload.Generate materializes, in the same order, per cell.
func TestStreamGridMatchesMaterialized(t *testing.T) {
	base := tiny()
	base.Seeds = 2
	p, err := NewPipeline(workloadAttNN(), base, 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := StandardScheds()[:3]
	for name, mut := range map[string]func(*Options){
		"single-engine": func(*Options) {},
		"cluster":       func(o *Options) { o.Engines = 3; o.Dispatch = "load" },
		"churning": func(o *Options) {
			o.Engines = 3
			o.Churn = true
			o.MTBF = 500 * time.Millisecond
			o.MTTR = 50 * time.Millisecond
			o.RetryMax = 2
		},
	} {
		opts := base
		mut(&opts)
		want, err := p.RunPoint(specs, 30, 10, opts)
		if err != nil {
			t.Fatalf("%s materialized: %v", name, err)
		}
		for _, workers := range []int{1, 4} {
			streamed := opts
			streamed.Stream = true
			streamed.Workers = workers
			got, err := p.RunPoint(specs, 30, 10, streamed)
			if err != nil {
				t.Fatalf("%s streamed (workers=%d): %v", name, workers, err)
			}
			a, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Errorf("%s (workers=%d): streamed grid diverges from materialized:\n%s\nvs\n%s",
					name, workers, b, a)
			}
		}
	}
}

// TestStreamOptionValidation: the option combinations the streaming path
// cannot honor must fail loudly at Validate time.
func TestStreamOptionValidation(t *testing.T) {
	o := tiny()
	o.Stream = true
	o.Autoscale = true
	o.Engines = 4
	if err := o.Validate(); err == nil {
		t.Error("-stream with -autoscale accepted")
	}
	o = tiny()
	o.Capture = "sideways"
	if err := o.Validate(); err == nil {
		t.Error("unknown capture mode accepted")
	}
	o = tiny()
	o.Stream = true
	o.Capture = "bounded"
	if err := o.Validate(); err != nil {
		t.Errorf("valid streaming options rejected: %v", err)
	}
}
