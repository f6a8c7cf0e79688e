package workload

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sparsedysta/internal/trace"
)

func buildSmall(t *testing.T, sc Scenario) (*trace.Store, *trace.Store) {
	t.Helper()
	prof, eval, err := BuildStores(sc, 8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	return prof, eval
}

func TestScenarios(t *testing.T) {
	att := MultiAttNN()
	if len(att.Entries) != 3 {
		t.Errorf("multi-attnn has %d entries, want 3", len(att.Entries))
	}
	cnn := MultiCNN()
	if len(cnn.Entries) != 12 {
		t.Errorf("multi-cnn has %d entries, want 12 (4 models x 3 patterns)", len(cnn.Entries))
	}
	if att.Accel.Name() != "sanger" || cnn.Accel.Name() != "eyeriss-v2" {
		t.Error("scenario accelerators wrong")
	}
}

func TestBuildStores(t *testing.T) {
	sc := MultiAttNN()
	prof, eval := buildSmall(t, sc)
	for _, e := range sc.Entries {
		if got := len(prof.Get(e.Key())); got != 8 {
			t.Errorf("%v: %d profiling traces, want 8", e.Key(), got)
		}
		if got := len(eval.Get(e.Key())); got != 16 {
			t.Errorf("%v: %d evaluation traces, want 16", e.Key(), got)
		}
	}
	// Profiling and evaluation sets must differ (disjoint seeds).
	k := sc.Entries[0].Key()
	if prof.Get(k)[0].Total() == eval.Get(k)[0].Total() {
		t.Error("profiling and evaluation traces identical; seed split broken")
	}
}

func TestGenerate(t *testing.T) {
	sc := MultiAttNN()
	_, eval := buildSmall(t, sc)
	reqs, err := Generate(sc, eval, GenConfig{
		Requests: 500, RatePerSec: 30, SLOMultiplier: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 500 {
		t.Fatalf("got %d requests", len(reqs))
	}
	// Arrivals strictly increasing, IDs sequential, SLO = 10x isolated.
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if i > 0 && r.Arrival <= reqs[i-1].Arrival {
			t.Fatalf("arrivals not increasing at %d", i)
		}
		_ = r
		if r.SLO <= 0 {
			t.Fatalf("request %d has non-positive SLO", i)
		}
		if r.Deadline() != r.Arrival+r.SLO {
			t.Fatalf("deadline mismatch at %d", i)
		}
	}
	// Mean inter-arrival ~ 1/30 s.
	meanGap := reqs[len(reqs)-1].Arrival.Seconds() / float64(len(reqs))
	if math.Abs(meanGap-1.0/30) > 0.01 {
		t.Errorf("mean inter-arrival %.4fs, want ~%.4fs", meanGap, 1.0/30)
	}
}

// TestGenerateBytesPerRequest: Generate keeps one 32-byte Request and one
// 8-byte pointer per request, in two arrays, so materializing 10,000
// requests allocates no more than 40 B each plus a constant: the
// stream's set-up and the rounding of each array up to whole pages. A
// request that carried its key again would take 480 kB here.
func TestGenerateBytesPerRequest(t *testing.T) {
	sc := MultiAttNN()
	_, eval := buildSmall(t, sc)
	cfg := GenConfig{Requests: 10000, RatePerSec: 30, SLOMultiplier: 10, Seed: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reqs, err := Generate(sc, eval, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const constant = 2*8192 + 1024 // two arrays' page rounding, the stream
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(40*cfg.Requests + constant); got > limit {
		t.Errorf("Generate allocated %d B for %d requests (%.1f B each), want at most %d",
			got, cfg.Requests, float64(got)/float64(cfg.Requests), limit)
	}
	runtime.KeepAlive(reqs)
}

func TestGenerateDeterministic(t *testing.T) {
	sc := MultiAttNN()
	_, eval := buildSmall(t, sc)
	cfg := GenConfig{Requests: 50, RatePerSec: 30, SLOMultiplier: 10, Seed: 9}
	a, _ := Generate(sc, eval, cfg)
	b, _ := Generate(sc, eval, cfg)
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Key() != b[i].Key() {
			t.Fatalf("request %d differs between identical generations", i)
		}
	}
}

func TestGenerateSamplesAllEntries(t *testing.T) {
	sc := MultiAttNN()
	_, eval := buildSmall(t, sc)
	reqs, _ := Generate(sc, eval, GenConfig{
		Requests: 600, RatePerSec: 30, SLOMultiplier: 10, Seed: 11})
	counts := map[string]int{}
	for _, r := range reqs {
		counts[r.Key().Model()]++
	}
	for _, e := range sc.Entries {
		n := counts[e.Model.Name]
		if n < 100 {
			t.Errorf("%s sampled only %d of 600 under uniform weights", e.Model.Name, n)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	sc := MultiAttNN()
	_, eval := buildSmall(t, sc)
	bad := []GenConfig{
		{Requests: 0, RatePerSec: 30, SLOMultiplier: 10},
		{Requests: 10, RatePerSec: 0, SLOMultiplier: 10},
		{Requests: 10, RatePerSec: 30, SLOMultiplier: 0.5},
		{Requests: 10, RatePerSec: math.NaN(), SLOMultiplier: 10},
		{Requests: 10, RatePerSec: math.Inf(1), SLOMultiplier: 10},
		{Requests: 10, RatePerSec: 30, SLOMultiplier: math.NaN()},
		{Requests: 10, RatePerSec: 30, SLOMultiplier: math.Inf(1)},
	}
	for _, cfg := range bad {
		if _, err := Generate(sc, eval, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	// Missing traces.
	if _, err := Generate(sc, trace.NewStore(), GenConfig{
		Requests: 10, RatePerSec: 30, SLOMultiplier: 10}); err == nil {
		t.Error("empty store accepted")
	}
	// Empty scenario.
	if _, err := Generate(Scenario{Name: "x"}, eval, GenConfig{
		Requests: 10, RatePerSec: 30, SLOMultiplier: 10}); err == nil {
		t.Error("empty scenario accepted")
	}
}

func TestMeanIsolated(t *testing.T) {
	sc := MultiAttNN()
	_, eval := buildSmall(t, sc)
	mean, err := MeanIsolated(sc, eval)
	if err != nil {
		t.Fatal(err)
	}
	// Calibration band from DESIGN.md: tens of milliseconds.
	if mean < 10*time.Millisecond || mean > 60*time.Millisecond {
		t.Errorf("multi-attnn mean isolated latency = %v, want tens of ms", mean)
	}
	if _, err := MeanIsolated(sc, trace.NewStore()); err == nil {
		t.Error("MeanIsolated accepted empty store")
	}
}

func TestMultiCNNUtilization(t *testing.T) {
	sc := MultiCNN()
	_, eval, err := BuildStores(sc, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := MeanIsolated(sc, eval)
	if err != nil {
		t.Fatal(err)
	}
	// At the paper's 3 req/s the CNN system should sit at moderate-to-high
	// utilization (rho in [0.5, 1.1]).
	rho := 3 * mean.Seconds()
	if rho < 0.5 || rho > 1.1 {
		t.Errorf("multi-cnn utilization at 3 req/s = %.2f, want [0.5, 1.1] (mean %v)", rho, mean)
	}
}

func TestSortByArrival(t *testing.T) {
	reqs := []*Request{
		{ID: 0, Arrival: 30},
		{ID: 1, Arrival: 10},
		{ID: 2, Arrival: 20},
	}
	SortByArrival(reqs)
	if reqs[0].ID != 1 || reqs[1].ID != 2 || reqs[2].ID != 0 {
		t.Errorf("sort order wrong: %v %v %v", reqs[0].ID, reqs[1].ID, reqs[2].ID)
	}
}

// buildStoresSequential is the pre-parallelization reference: one entry
// after another, same per-entry seed derivation as BuildStores.
func buildStoresSequential(sc Scenario, profileSamples, evalSamples int, seed uint64) (*trace.Store, *trace.Store, error) {
	prof, eval := trace.NewStore(), trace.NewStore()
	for i, e := range sc.Entries {
		base := trace.BuildConfig{
			Model:      e.Model,
			Pattern:    e.Pattern,
			WeightRate: e.WeightRate,
		}
		pcfg := base
		pcfg.Samples = profileSamples
		pcfg.Seed = seed + uint64(i)*2
		ptr, err := trace.Build(sc.Accel, pcfg)
		if err != nil {
			return nil, nil, err
		}
		prof.Add(e.Key(), ptr)
		ecfg := base
		ecfg.Samples = evalSamples
		ecfg.Seed = seed + uint64(i)*2 + 1
		etr, err := trace.Build(sc.Accel, ecfg)
		if err != nil {
			return nil, nil, err
		}
		eval.Add(e.Key(), etr)
	}
	return prof, eval, nil
}

// TestBuildStoresMatchesSequential: the concurrent per-pair build must
// produce stores byte-identical to the sequential reference — same keys,
// same traces, same order — for both benchmark scenarios.
func TestBuildStoresMatchesSequential(t *testing.T) {
	for _, sc := range []Scenario{MultiAttNN(), MultiCNN()} {
		gotProf, gotEval, err := BuildStores(sc, 6, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		wantProf, wantEval, err := buildStoresSequential(sc, 6, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range sc.Entries {
			k := e.Key()
			if !reflect.DeepEqual(gotProf.Get(k), wantProf.Get(k)) {
				t.Errorf("%s: profiling traces for %v diverge from sequential build", sc.Name, k)
			}
			if !reflect.DeepEqual(gotEval.Get(k), wantEval.Get(k)) {
				t.Errorf("%s: evaluation traces for %v diverge from sequential build", sc.Name, k)
			}
		}
		if gotProf.Len() != wantProf.Len() || gotEval.Len() != wantEval.Len() {
			t.Errorf("%s: store key counts diverge", sc.Name)
		}
	}
}

// TestBuildStoresAllocations: Phase 1 allocates a constant number of
// objects per build, so the paper protocol's MultiCNN stores (12 entries,
// 100 profiling and 400 evaluation samples each) stay under a few hundred
// allocations; they made 12,207 when every sample allocated its rows.
func TestBuildStoresAllocations(t *testing.T) {
	sc := MultiCNN()
	allocs := testing.AllocsPerRun(2, func() {
		if _, _, err := BuildStores(sc, 100, 400, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 400 {
		t.Errorf("BuildStores(MultiCNN, 100, 400) made %v allocations, want at most 400", allocs)
	}
}

// TestBuildStoresPropagatesError: a broken entry surfaces the first
// failing entry's error.
func TestBuildStoresPropagatesError(t *testing.T) {
	sc := MultiAttNN()
	sc.Entries[1].Model = nil
	if _, _, err := BuildStores(sc, 4, 4, 1); err == nil {
		t.Fatal("nil model accepted")
	}
}
