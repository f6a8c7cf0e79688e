package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/accel/eyeriss"
	"sparsedysta/internal/accel/sanger"
	"sparsedysta/internal/models"
	"sparsedysta/internal/sparsity"
)

func buildCNN(t *testing.T, samples int) (Key, []SampleTrace) {
	t.Helper()
	m := models.MobileNet()
	traces, err := Build(eyeriss.NewDefault(), BuildConfig{
		Model: m, Pattern: sparsity.RandomPointwise, WeightRate: 0.8,
		Samples: samples, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewKey(m.Name, sparsity.RandomPointwise), traces
}

func TestBuildShapes(t *testing.T) {
	m := models.MobileNet()
	_, traces := buildCNN(t, 16)
	if len(traces) != 16 {
		t.Fatalf("got %d traces", len(traces))
	}
	for i, tr := range traces {
		if tr.NumLayers() != m.NumLayers() {
			t.Fatalf("trace %d has %d layers, want %d", i, tr.NumLayers(), m.NumLayers())
		}
		if tr.Total() <= 0 {
			t.Fatalf("trace %d total latency %v", i, tr.Total())
		}
		for l, d := range tr.LayerLatency {
			if d <= 0 {
				t.Fatalf("trace %d layer %d latency %v", i, l, d)
			}
		}
	}
}

func TestBuildIsDeterministic(t *testing.T) {
	_, a := buildCNN(t, 5)
	_, b := buildCNN(t, 5)
	for i := range a {
		for l := range a[i].LayerLatency {
			if a[i].LayerLatency[l] != b[i].LayerLatency[l] {
				t.Fatalf("trace %d layer %d latency differs", i, l)
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(eyeriss.NewDefault(), BuildConfig{Model: nil, Samples: 1}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Build(eyeriss.NewDefault(), BuildConfig{Model: models.MobileNet(), Samples: 0}); err == nil {
		t.Error("zero samples accepted")
	}
	// A weight sparsity rate must lie in [0, 1); NaN fails every
	// comparison and must fail the check too.
	for _, rate := range []float64{math.NaN(), -0.5, 1, 1.5, math.Inf(1)} {
		_, err := Build(eyeriss.NewDefault(), BuildConfig{Model: models.MobileNet(), Samples: 1,
			Pattern: sparsity.RandomPointwise, WeightRate: rate})
		if want := fmt.Sprintf("rate %v", rate); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("rate %v: err %v, want one naming %q", rate, err, want)
		}
	}
	// Family mismatch: an AttNN on the CNN accelerator.
	if _, err := Build(eyeriss.NewDefault(), BuildConfig{Model: models.BERTBase(), Samples: 1}); err == nil {
		t.Error("family mismatch accepted")
	}
}

func TestBuildAttNN(t *testing.T) {
	m := models.BERTBase()
	traces, err := Build(sanger.NewDefault(), BuildConfig{Model: m, Samples: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Per-sample totals must vary: this is the dynamicity the paper's
	// Fig. 2 profiles.
	first := traces[0].Total()
	varies := false
	for _, tr := range traces[1:] {
		if tr.Total() != first {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("AttNN isolated latency identical across samples")
	}
}

func TestRemaining(t *testing.T) {
	tr := SampleTrace{LayerLatency: []time.Duration{10, 20, 30}}
	if got := tr.Remaining(0); got != 60 {
		t.Errorf("Remaining(0) = %v", got)
	}
	if got := tr.Remaining(2); got != 30 {
		t.Errorf("Remaining(2) = %v", got)
	}
	if got := tr.Remaining(3); got != 0 {
		t.Errorf("Remaining(3) = %v", got)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	k, traces := buildCNN(t, 4)
	s := NewStore()
	s.Add(k, traces[:2])
	s.Add(k, traces[2:])
	if got := len(s.Get(k)); got != 4 {
		t.Errorf("store holds %d traces", got)
	}
	if s.Len() != 1 || len(s.Keys()) != 1 {
		t.Errorf("store has %d keys", s.Len())
	}
	if s.Get(NewKey("nope", sparsity.Dense)) != nil {
		t.Error("missing key returned traces")
	}
}

// TestStoreSumTotals: the sum a store keeps is bit-identical to summing
// the key's trace totals in trace order, the SLO base every stream used
// to recompute, however many Adds stored them.
func TestStoreSumTotals(t *testing.T) {
	k, traces := buildCNN(t, 7)
	var want float64
	for i := range traces {
		want += float64(traces[i].Total())
	}
	s := NewStore()
	s.Add(k, traces[:3])
	s.Add(k, traces[3:])
	if got := s.SumTotals(k); got != want {
		t.Errorf("SumTotals %v, want %v", got, want)
	}
	if got := s.SumTotals(NewKey("nope", sparsity.Dense)); got != 0 {
		t.Errorf("missing key sums to %v", got)
	}
}

// TestStoreStampsTotals: Store.Add stamps each stored copy's total, and
// the stamp is the copy's layer sum. A trace no store holds (the caller's
// own slice among them) carries no stamp and still reports its exact
// layer sum.
func TestStoreStampsTotals(t *testing.T) {
	k, traces := buildCNN(t, 5)
	s := NewStore()
	s.Add(k, traces[:2])
	s.Add(k, traces[2:])
	for i := range traces {
		if traces[i].total != 0 {
			t.Fatalf("Add stamped the caller's trace %d", i)
		}
	}
	stored := s.Get(k)
	for i := range stored {
		var sum time.Duration
		for _, d := range stored[i].LayerLatency {
			sum += d
		}
		if stored[i].total != sum || stored[i].Total() != sum {
			t.Errorf("stored trace %d: stamp %v, Total %v, layer sum %v", i, stored[i].total, stored[i].Total(), sum)
		}
		if got := traces[i].Total(); got != sum {
			t.Errorf("unstored trace %d: Total %v, layer sum %v", i, got, sum)
		}
	}
	hand := SampleTrace{LayerLatency: []time.Duration{7, 11, 13}}
	if got := hand.Total(); got != 31 {
		t.Errorf("hand-built trace Total %v, want 31", got)
	}
}

// TestStoreStampsKeys: Build keys its traces by the model and pattern
// it measured, and Store.Add stamps each stored copy with the key it
// files the copy under, whatever key the caller's trace carries (a
// hand-built one carries none), leaving the caller's traces as they
// were.
func TestStoreStampsKeys(t *testing.T) {
	k, traces := buildCNN(t, 4)
	for i := range traces {
		if traces[i].Key != k {
			t.Fatalf("Build keyed trace %d %v, want %v", i, traces[i].Key, k)
		}
	}
	other := NewKey("other-"+t.Name(), sparsity.BlockNM)
	hand := []SampleTrace{{LayerLatency: []time.Duration{7}, LayerSparsity: []float64{0.5}}}
	before := append(append([]SampleTrace(nil), traces...), hand...)
	s := NewStore()
	s.Add(k, traces[:2])
	s.Add(other, traces[2:])
	s.Add(other, hand)
	if after := append(append([]SampleTrace(nil), traces...), hand...); !reflect.DeepEqual(after, before) {
		t.Errorf("Add changed the caller's traces:\n%+v\nwant\n%+v", after, before)
	}
	for _, want := range []Key{k, other} {
		stored := s.Get(want)
		if len(stored) == 0 {
			t.Fatalf("nothing stored under %v", want)
		}
		for i := range stored {
			if stored[i].Key != want {
				t.Errorf("trace %d stored under %v carries key %v", i, want, stored[i].Key)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	k := NewKey("m", sparsity.Dense)
	traces := []SampleTrace{
		{LayerLatency: []time.Duration{100, 200}, LayerSparsity: []float64{0.2, 0.4}},
		{LayerLatency: []time.Duration{300, 400}, LayerSparsity: []float64{0.4, 0.8}},
	}
	st, err := Summarize(k, traces)
	if err != nil {
		t.Fatal(err)
	}
	if st.AvgTotal != 500 {
		t.Errorf("AvgTotal = %v, want 500", st.AvgTotal)
	}
	if st.AvgLayerLatency[0] != 200 || st.AvgLayerLatency[1] != 300 {
		t.Errorf("AvgLayerLatency = %v", st.AvgLayerLatency)
	}
	if math.Abs(st.AvgLayerSparsity[0]-0.3) > 1e-12 || math.Abs(st.AvgLayerSparsity[1]-0.6) > 1e-12 {
		t.Errorf("AvgLayerSparsity = %v", st.AvgLayerSparsity)
	}
	if math.Abs(st.AvgNetworkSparsity-0.45) > 1e-12 {
		t.Errorf("AvgNetworkSparsity = %v", st.AvgNetworkSparsity)
	}
	if st.AvgRemaining(0) != 500 || st.AvgRemaining(1) != 300 || st.AvgRemaining(2) != 0 {
		t.Errorf("AvgRemaining wrong: %v %v %v",
			st.AvgRemaining(0), st.AvgRemaining(1), st.AvgRemaining(2))
	}
	if st.AvgRemaining(-1) != 500 || st.AvgRemaining(99) != 0 {
		t.Error("AvgRemaining bounds handling wrong")
	}
}

func TestSummarizeErrors(t *testing.T) {
	k := NewKey("m", sparsity.Dense)
	if _, err := Summarize(k, nil); err == nil {
		t.Error("empty traces accepted")
	}
	ragged := []SampleTrace{
		{LayerLatency: []time.Duration{1}, LayerSparsity: []float64{0}},
		{LayerLatency: []time.Duration{1, 2}, LayerSparsity: []float64{0, 0}},
	}
	if _, err := Summarize(k, ragged); err == nil {
		t.Error("ragged traces accepted")
	}
}

func TestStatsSet(t *testing.T) {
	k, traces := buildCNN(t, 6)
	s := NewStore()
	s.Add(k, traces)
	set, err := NewStatsSet(s)
	if err != nil {
		t.Fatal(err)
	}
	if set.Lookup(k) == nil {
		t.Fatal("profiled key missing from stats set")
	}
	if set.Lookup(NewKey("nope", sparsity.Dense)) != nil {
		t.Error("unknown key found")
	}
	if len(set.Keys()) != 1 {
		t.Errorf("stats set has %d keys", len(set.Keys()))
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLookup on missing key did not panic")
		}
	}()
	set.MustLookup(NewKey("nope", sparsity.Dense))
}

func TestCSVRoundTrip(t *testing.T) {
	k, traces := buildCNN(t, 3)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, k, traces); err != nil {
		t.Fatal(err)
	}
	gotKey, gotTraces, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != k {
		t.Errorf("key round trip: %v != %v", gotKey, k)
	}
	if len(gotTraces) != len(traces) {
		t.Fatalf("trace count %d != %d", len(gotTraces), len(traces))
	}
	for i := range traces {
		if gotTraces[i].Key != k {
			t.Errorf("read trace %d carries key %v, want the file's %v", i, gotTraces[i].Key, k)
		}
		for l := range traces[i].LayerLatency {
			if gotTraces[i].LayerLatency[l] != traces[i].LayerLatency[l] {
				t.Fatalf("latency differs at sample %d layer %d", i, l)
			}
			if gotTraces[i].LayerSparsity[l] != traces[i].LayerSparsity[l] {
				t.Fatalf("sparsity differs at sample %d layer %d", i, l)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad header": "a,b,c,d,e,f\n",
		"empty file": "model,pattern,sample,layer,latency_ns,sparsity\n",
		"bad pattern": "model,pattern,sample,layer,latency_ns,sparsity\n" +
			"m,wat,0,0,100,0.5\n",
		"out of order": "model,pattern,sample,layer,latency_ns,sparsity\n" +
			"m,dense,1,0,100,0.5\n",
		"bad latency": "model,pattern,sample,layer,latency_ns,sparsity\n" +
			"m,dense,0,0,xyz,0.5\n",
		"mixed keys": "model,pattern,sample,layer,latency_ns,sparsity\n" +
			"m,dense,0,0,100,0.5\nn,dense,1,0,100,0.5\n",
	}
	for name, data := range cases {
		if _, _, err := ReadCSV(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadCSVRejectsNonPhysicalValues: a negative latency or a sparsity
// outside [0, 1] (NaN and the infinities included) is rejected with an
// error naming the offending sample and layer, so no LUT is ever built
// from one. The bad value sits at sample 1, layer 1 behind valid rows.
func TestReadCSVRejectsNonPhysicalValues(t *testing.T) {
	const valid = "model,pattern,sample,layer,latency_ns,sparsity\n" +
		"m,dense,0,0,100,0.5\nm,dense,0,1,100,0.5\nm,dense,1,0,100,0.5\n"
	for _, row := range []string{
		"m,dense,1,1,-1,0.5",
		"m,dense,1,1,100,NaN",
		"m,dense,1,1,100,+Inf",
		"m,dense,1,1,100,-Inf",
		"m,dense,1,1,100,1.5",
		"m,dense,1,1,100,-0.1",
	} {
		_, _, err := ReadCSV(strings.NewReader(valid + row + "\n"))
		if err == nil {
			t.Errorf("%s: accepted", row)
			continue
		}
		if !strings.Contains(err.Error(), "sample 1 layer 1") {
			t.Errorf("%s: error %q does not name sample 1 layer 1", row, err)
		}
	}
	// The bounds themselves are physical.
	for _, row := range []string{"m,dense,1,1,0,0", "m,dense,1,1,100,1"} {
		if _, _, err := ReadCSV(strings.NewReader(valid + row + "\n")); err != nil {
			t.Errorf("%s: rejected: %v", row, err)
		}
	}
}

func TestKeyString(t *testing.T) {
	k := NewKey("bert", sparsity.Dense)
	if got := k.String(); got != "bert/dense" {
		t.Errorf("Key.String() = %q", got)
	}
}
