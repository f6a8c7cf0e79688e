package trace

import (
	"math"
	"testing"
	"time"

	"sparsedysta/internal/sparsity"
)

// slopedTraces builds two traces whose latency varies linearly with
// sparsity: lat = base + slope*(s - 0.5) per layer.
func slopedTraces(base time.Duration, slope float64, layers int) []SampleTrace {
	mk := func(s float64) SampleTrace {
		tr := SampleTrace{
			LayerLatency:  make([]time.Duration, layers),
			LayerSparsity: make([]float64, layers),
		}
		for l := range tr.LayerLatency {
			tr.LayerLatency[l] = base + time.Duration(slope*(s-0.5))
			tr.LayerSparsity[l] = s
		}
		return tr
	}
	return []SampleTrace{mk(0.3), mk(0.7)}
}

func TestLatSparsitySlopeFit(t *testing.T) {
	k := NewKey("m", sparsity.Dense)
	// lat = 1ms - 2ms*(s-0.5): slope must fit to -2e6 ns per sparsity unit.
	st, err := Summarize(k, slopedTraces(time.Millisecond, -2e6, 3))
	if err != nil {
		t.Fatal(err)
	}
	for l, slope := range st.LatSparsitySlope {
		if math.Abs(slope-(-2e6)) > 50 {
			t.Errorf("layer %d slope = %v, want -2e6", l, slope)
		}
	}
	// Constant-sparsity traces carry no signal: slope 0.
	flat := []SampleTrace{
		{LayerLatency: []time.Duration{1000}, LayerSparsity: []float64{0.5}},
		{LayerLatency: []time.Duration{2000}, LayerSparsity: []float64{0.5}},
	}
	st2, err := Summarize(k, flat)
	if err != nil {
		t.Fatal(err)
	}
	if st2.LatSparsitySlope[0] != 0 {
		t.Errorf("constant-sparsity slope = %v, want 0", st2.LatSparsitySlope[0])
	}
}

func TestSensitivityRemaining(t *testing.T) {
	k := NewKey("m", sparsity.Dense)
	st, err := Summarize(k, slopedTraces(time.Millisecond, -2e6, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Sensitivity from layer l = sum of slope*avgSparsity over l..end:
	// 3 layers x (-2e6 * 0.5) = -3e6 from layer 0.
	if got := st.SensitivityRemaining(0); math.Abs(got-(-3e6)) > 50 {
		t.Errorf("SensitivityRemaining(0) = %v, want -3e6", got)
	}
	if got := st.SensitivityRemaining(2); math.Abs(got-(-1e6)) > 50 {
		t.Errorf("SensitivityRemaining(2) = %v, want -1e6", got)
	}
	// Density sensitivity: -slope*(1-avgS) summed = +2e6*0.5*3 = 3e6.
	if got := st.SensitivityRemainingDensity(0); math.Abs(got-3e6) > 50 {
		t.Errorf("SensitivityRemainingDensity(0) = %v, want 3e6", got)
	}
	// Bounds handling.
	if st.SensitivityRemaining(-5) != st.SensitivityRemaining(0) {
		t.Error("negative index not clamped")
	}
	if st.SensitivityRemaining(99) != 0 || st.SensitivityRemainingDensity(99) != 0 {
		t.Error("past-the-end sensitivity not zero")
	}
	if st.SensitivityRemainingDensity(-1) != st.SensitivityRemainingDensity(0) {
		t.Error("negative index not clamped (density)")
	}
	if st.NumLayers() != 3 {
		t.Errorf("NumLayers = %d", st.NumLayers())
	}
}

func TestMergedByModel(t *testing.T) {
	store := NewStore()
	kA := NewKey("m", sparsity.RandomPointwise)
	kB := NewKey("m", sparsity.ChannelWise)
	kOther := NewKey("other", sparsity.Dense)
	// Pattern A: 1ms/layer at s=0.4 (2 samples); pattern B: 3ms/layer at
	// s=0.8 (2 samples). Equal sample counts -> merged averages are the
	// midpoints.
	mk := func(lat time.Duration, s float64) SampleTrace {
		return SampleTrace{
			LayerLatency:  []time.Duration{lat, lat},
			LayerSparsity: []float64{s, s},
		}
	}
	store.Add(kA, []SampleTrace{mk(time.Millisecond, 0.4), mk(time.Millisecond, 0.4)})
	store.Add(kB, []SampleTrace{mk(3*time.Millisecond, 0.8), mk(3*time.Millisecond, 0.8)})
	store.Add(kOther, []SampleTrace{mk(time.Microsecond, 0.1)})
	set, err := NewStatsSet(store)
	if err != nil {
		t.Fatal(err)
	}

	merged := set.MergedByModel("m")
	if merged == nil {
		t.Fatal("merge returned nil")
	}
	if merged.Samples != 4 {
		t.Errorf("merged samples = %d, want 4", merged.Samples)
	}
	if got, want := merged.AvgTotal, 4*time.Millisecond; got != want {
		t.Errorf("merged AvgTotal = %v, want %v", got, want)
	}
	if math.Abs(merged.AvgLayerSparsity[0]-0.6) > 1e-12 {
		t.Errorf("merged layer sparsity = %v, want 0.6", merged.AvgLayerSparsity[0])
	}
	if math.Abs(merged.AvgNetworkSparsity-0.6) > 1e-12 {
		t.Errorf("merged network sparsity = %v", merged.AvgNetworkSparsity)
	}
	if merged.AvgRemaining(1) != 2*time.Millisecond {
		t.Errorf("merged AvgRemaining(1) = %v, want 2ms", merged.AvgRemaining(1))
	}

	// A model with a single pattern returns its entry unmerged.
	single := set.MergedByModel("other")
	if single != set.Lookup(kOther) {
		t.Error("single-pattern merge did not reuse the entry")
	}
	// Unknown models merge to nil.
	if set.MergedByModel("ghost") != nil {
		t.Error("unknown model merged to non-nil")
	}
}

func TestMergedByModelWeightsBySamples(t *testing.T) {
	store := NewStore()
	kA := NewKey("m", sparsity.RandomPointwise)
	kB := NewKey("m", sparsity.ChannelWise)
	mk := func(lat time.Duration) SampleTrace {
		return SampleTrace{LayerLatency: []time.Duration{lat}, LayerSparsity: []float64{0.5}}
	}
	// 3 samples at 1ms vs 1 sample at 5ms: weighted mean = 2ms.
	store.Add(kA, []SampleTrace{mk(time.Millisecond), mk(time.Millisecond), mk(time.Millisecond)})
	store.Add(kB, []SampleTrace{mk(5 * time.Millisecond)})
	set, err := NewStatsSet(store)
	if err != nil {
		t.Fatal(err)
	}
	merged := set.MergedByModel("m")
	if got, want := merged.AvgTotal, 2*time.Millisecond; got != want {
		t.Errorf("weighted merge AvgTotal = %v, want %v", got, want)
	}
}
