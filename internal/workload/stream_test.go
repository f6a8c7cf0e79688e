package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"

	"sparsedysta/internal/models"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/traffic"
)

// TestRequestSize pins a request at 32 bytes, four words with its key
// on its trace, and the key at one word: a materialized stream (bench's
// serving-control holds 200k) pays for every byte a request carries.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 32 {
		t.Errorf("workload.Request is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(trace.Key{}); got != 8 {
		t.Errorf("trace.Key is %d bytes, want 8", got)
	}
}

// TestNewStreamAllocations: a stream resolves each entry's key, traces
// and SLO into one slice and holds its random source and its Poisson
// process inline, so opening one allocates the stream and that slice,
// nothing per entry, and re-arming one allocates nothing.
func TestNewStreamAllocations(t *testing.T) {
	sc := MultiCNN()
	_, eval, err := BuildStores(sc, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GenConfig{Requests: 10, RatePerSec: 3, SLOMultiplier: 10, Seed: 1}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewStream(sc, eval, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("NewStream over %d entries made %v allocations, want at most 2", len(sc.Entries), allocs)
	}
	st, err := NewStream(sc, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		cfg.Seed++
		if err := st.Reset(sc, eval, cfg); err != nil {
			t.Fatal(err)
		}
		st.Next()
	})
	if allocs != 0 {
		t.Errorf("re-arming a stream over %d entries made %v allocations, want 0", len(sc.Entries), allocs)
	}
}

// TestStreamSLOBound: NewStream refuses an entry whose SLO is not below
// 2^63 ns, the largest time.Duration, naming the entry, M_slo and the
// SLO factor; the SLO used to wrap, and the run reported every request
// of the entry violated without an error. Powers of two keep both sides
// of the bound exact: a 2^20 ns mean isolated latency times 2^43 is
// 2^63, and the float just below 2^43 gives the largest SLO accepted.
func TestStreamSLOBound(t *testing.T) {
	m, err := models.ByName("bert")
	if err != nil {
		t.Fatal(err)
	}
	store := trace.NewStore()
	store.Add(trace.NewKey(m.Name, sparsity.Dense), []trace.SampleTrace{
		{LayerLatency: []time.Duration{1 << 19, 1 << 19}, LayerSparsity: []float64{0.5, 0.5}},
	})
	below := math.Nextafter(1<<43, 0)
	for _, c := range []struct {
		mslo, factor float64
		ok           bool
	}{
		{1, below, true},
		{below, 1, true},
		{1, 1 << 43, false},
		{1 << 43, 1, false},
		{2, 1 << 42, false},
		{1, math.Inf(1), false},
		{1, math.NaN(), false},
	} {
		sc := Scenario{Name: "bound", Entries: []Entry{{Model: m, Pattern: sparsity.Dense, Weight: 1, SLOFactor: c.factor}}}
		st, err := NewStream(sc, store, GenConfig{Requests: 2, RatePerSec: 10, SLOMultiplier: c.mslo, Seed: 1})
		if !c.ok {
			for _, want := range []string{"entry 0 (bert/dense)", fmt.Sprintf("M_slo %g", c.mslo), fmt.Sprintf("SLO factor %g", c.factor)} {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("M_slo %g x factor %g: err %v, want one naming %q", c.mslo, c.factor, err, want)
				}
			}
			continue
		}
		if err != nil {
			t.Fatalf("M_slo %g x factor %g: %v", c.mslo, c.factor, err)
		}
		req, _ := st.Next()
		if want := time.Duration(math.MaxInt64 - 1<<10 + 1); req.SLO != want {
			t.Errorf("M_slo %g x factor %g: SLO %d, want %d", c.mslo, c.factor, req.SLO, want)
		}
	}
}

// TestBadEntriesFailTheStream: a scenario built through the Go API with
// an entry whose weight is not finite and positive, or whose SLO factor
// is negative, fails NewStream with an error naming the entry, and the
// same entry fails Spec.Scenario at load time. Such streams used to run
// without an error: a factor of -3 read as 1, entry 1 at weight -1 made
// every request bert, and at NaN or +Inf every request was gpt2. A
// factor of 0 still means 1, and a NaN or infinite factor still fails
// the SLO bound, naming M_slo.
func TestBadEntriesFailTheStream(t *testing.T) {
	base := MultiAttNN()
	_, eval, err := BuildStores(base, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GenConfig{Requests: 300, RatePerSec: 30, SLOMultiplier: 10, Seed: 1}
	for _, c := range []struct {
		name  string
		entry int
		edit  func(*Entry)
		want  string // "" accepts the scenario
	}{
		{"factor zero", 0, func(e *Entry) { e.SLOFactor = 0 }, ""},
		{"weight two", 1, func(e *Entry) { e.Weight = 2 }, ""},
		{"negative factor", 0, func(e *Entry) { e.SLOFactor = -3 }, "entry 0 (bert/dense): SLO factor -3"},
		{"negative infinite factor", 2, func(e *Entry) { e.SLOFactor = math.Inf(-1) }, "entry 2 (gpt2/dense): SLO factor -Inf"},
		{"NaN factor", 1, func(e *Entry) { e.SLOFactor = math.NaN() }, "M_slo 10"},
		{"negative weight", 1, func(e *Entry) { e.Weight = -1 }, "entry 1 (bart/dense): weight -1"},
		{"zero weight", 1, func(e *Entry) { e.Weight = 0 }, "entry 1 (bart/dense): weight 0"},
		{"NaN weight", 1, func(e *Entry) { e.Weight = math.NaN() }, "entry 1 (bart/dense): weight NaN"},
		{"infinite weight", 1, func(e *Entry) { e.Weight = math.Inf(1) }, "entry 1 (bart/dense): weight +Inf"},
	} {
		sc := base
		sc.Entries = append([]Entry(nil), base.Entries...)
		c.edit(&sc.Entries[c.entry])
		_, err := NewStream(sc, eval, cfg)
		_, specErr := ToSpec(sc).Scenario()
		if c.want == "" {
			if err != nil || specErr != nil {
				t.Errorf("%s: NewStream err %v, Spec.Scenario err %v; want both to accept", c.name, err, specErr)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewStream err %v, want one naming %q", c.name, err, c.want)
		}
		if specErr == nil {
			t.Errorf("%s: Spec.Scenario accepted the entry", c.name)
		}
	}
}

// TestNilModelEntriesFail: a Go-API entry without a model fails
// NewStream, Generate and MeanIsolated with an error naming the entry,
// wherever it sits; all three used to panic dereferencing the model for
// its trace key. Entry.check refuses it too, without dereferencing it,
// and ToSpec, which also used to panic, writes an empty model name that
// Spec.Scenario refuses naming the entry.
func TestNilModelEntriesFail(t *testing.T) {
	base := MultiAttNN()
	_, eval, err := BuildStores(base, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GenConfig{Requests: 10, RatePerSec: 30, SLOMultiplier: 10, Seed: 1}
	for _, c := range []struct {
		name  string
		edit  func([]Entry) []Entry
		entry int
	}{
		{"appended", func(es []Entry) []Entry { return append(es, Entry{Pattern: sparsity.Dense, Weight: 1}) }, 3},
		{"first", func(es []Entry) []Entry { es[0].Model = nil; return es }, 0},
		{"middle, bad weight too", func(es []Entry) []Entry { es[1].Model, es[1].Weight = nil, -1; return es }, 1},
	} {
		sc := base
		sc.Entries = c.edit(append([]Entry(nil), base.Entries...))
		want := fmt.Sprintf("workload: entry %d: nil model", c.entry)
		_, streamErr := NewStream(sc, eval, cfg)
		_, genErr := Generate(sc, eval, cfg)
		_, meanErr := MeanIsolated(sc, eval)
		checkErr := sc.Entries[c.entry].check(c.entry)
		for fn, err := range map[string]error{"NewStream": streamErr, "Generate": genErr, "MeanIsolated": meanErr, "Entry.check": checkErr} {
			if err == nil || err.Error() != want {
				t.Errorf("%s: %s err %v, want %q", c.name, fn, err, want)
			}
		}
		// The round trip through the serializable form writes an empty
		// model name, which the loader refuses naming the entry.
		_, specErr := ToSpec(sc).Scenario()
		if want := fmt.Sprintf("workload: entry %d: models: unknown model \"\"", c.entry); specErr == nil || !strings.HasPrefix(specErr.Error(), want) {
			t.Errorf("%s: ToSpec then Scenario err %v, want one starting %q", c.name, specErr, want)
		}
	}
}

// TestStreamMatchesGenerate pins the bit-identity contract between the
// iterator and the materialized path, for the default inline Poisson
// and for an explicit bursty process, on a new stream and on one
// re-armed in place after it was drained part-way under another
// scenario, seed and process, and then emptied by a failed Reset. Every
// yielded request's Key is the key of the entry whose stored traces its
// Trace points into.
func TestStreamMatchesGenerate(t *testing.T) {
	sc, cnn := MultiAttNN(), MultiCNN()
	_, eval, err := BuildStores(sc, 10, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	entryKey := func(tr *trace.SampleTrace) trace.Key {
		for _, e := range sc.Entries {
			traces := eval.Get(e.Key())
			for i := range traces {
				if &traces[i] == tr {
					return e.Key()
				}
			}
		}
		t.Fatalf("trace %p is in no entry's stored traces", tr)
		return trace.Key{}
	}
	_, cnnEval, err := BuildStores(cnn, 4, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	var reused Stream
	rearm := func(cfg GenConfig) (*Stream, error) {
		other := GenConfig{Requests: 300, RatePerSec: 4, SLOMultiplier: 10, Seed: 3,
			Process: traffic.Bursty(4, 8, 0.2, time.Second)}
		if err := reused.Reset(cnn, cnnEval, other); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			reused.Next()
		}
		if err := reused.Reset(sc, eval, GenConfig{Requests: 10, RatePerSec: math.NaN(), SLOMultiplier: 10}); err == nil {
			t.Fatal("Reset accepted a NaN rate")
		}
		if r, ok := reused.Next(); ok || r != nil || reused.Len() != 0 {
			t.Fatalf("a stream whose Reset failed yielded %v (ok %v) and has length %d; want none", r, ok, reused.Len())
		}
		return &reused, reused.Reset(sc, eval, cfg)
	}
	cfgs := []GenConfig{
		{Requests: 200, RatePerSec: 30, SLOMultiplier: 10, Seed: 7},
		{Requests: 200, RatePerSec: 30, SLOMultiplier: 10, Seed: 7,
			Process: traffic.Bursty(30, 8, 0.2, 100*time.Millisecond)},
	}
	for ci, cfg := range cfgs {
		reqs, err := Generate(sc, eval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range []struct {
			name string
			open func(GenConfig) (*Stream, error)
		}{
			{"new", func(cfg GenConfig) (*Stream, error) { return NewStream(sc, eval, cfg) }},
			{"re-armed", rearm},
		} {
			st, err := arm.open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Len() != len(reqs) {
				t.Fatalf("cfg %d, %s: stream length %d != %d generated", ci, arm.name, st.Len(), len(reqs))
			}
			var prev time.Duration
			for i := 0; ; i++ {
				got, ok := st.Next()
				if !ok {
					if i != len(reqs) {
						t.Fatalf("cfg %d, %s: stream ended after %d of %d requests", ci, arm.name, i, len(reqs))
					}
					break
				}
				want := reqs[i]
				if k := entryKey(got.Trace); got.Key() != k {
					t.Fatalf("cfg %d, %s: request %d has key %v, its entry's is %v", ci, arm.name, i, got.Key(), k)
				}
				if got.ID != want.ID || got.Key() != want.Key() || got.Arrival != want.Arrival ||
					got.SLO != want.SLO || &got.Trace.LayerLatency[0] != &want.Trace.LayerLatency[0] {
					t.Fatalf("cfg %d, %s: request %d diverged: stream %+v vs generate %+v", ci, arm.name, i, got, want)
				}
				if got.Arrival < prev {
					t.Fatalf("cfg %d, %s: arrivals not monotone at request %d", ci, arm.name, i)
				}
				prev = got.Arrival
			}
			if _, ok := st.Next(); ok {
				t.Fatalf("cfg %d, %s: exhausted stream yielded another request", ci, arm.name)
			}
		}
	}
}
