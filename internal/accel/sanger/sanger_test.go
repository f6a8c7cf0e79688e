package sanger

import (
	"testing"
	"time"

	"sparsedysta/internal/accel"
	"sparsedysta/internal/models"
)

func attnState(as float64) accel.LayerSparsity {
	return accel.LayerSparsity{ActivationSparsity: as}
}

func TestLatencyPositive(t *testing.T) {
	sim := NewDefault()
	for _, m := range models.BenchmarkAttNNs() {
		for _, l := range m.Layers {
			if d := layerLatency(sim, &l, attnState(0.9)); d <= 0 {
				t.Errorf("%s/%s: non-positive latency %v", m.Name, l.Name, d)
			}
		}
	}
}

func TestMonotoneInAttentionSparsity(t *testing.T) {
	sim := NewDefault()
	l := models.BERTBase().Layers[0]
	prev := time.Duration(1 << 62)
	for as := 0.0; as <= 1.0; as += 0.05 {
		d := layerLatency(sim, &l, attnState(as))
		if d > prev {
			t.Fatalf("latency increased with sparsity at as=%.2f: %v > %v", as, d, prev)
		}
		prev = d
	}
}

// TestDynamicRange verifies the calibration behind paper Fig. 2: across the
// benchmark's attention-sparsity range (~0.7 to ~0.98) per-block latency
// varies by roughly 2-3x, which normalizes to the 0.6-1.8 spread the paper
// profiles on BERT.
func TestDynamicRange(t *testing.T) {
	sim := NewDefault()
	l := models.BERTBase().Layers[11]
	slow := layerLatency(sim, &l, attnState(0.70))
	fast := layerLatency(sim, &l, attnState(0.98))
	ratio := float64(slow) / float64(fast)
	if ratio < 1.8 || ratio > 4.0 {
		t.Errorf("latency ratio across sparsity range = %.2f, want within [1.8, 4.0]", ratio)
	}
}

// TestCalibratedModelLatencies pins whole-model latencies to the DESIGN.md
// targets: the three-model benchmark mix must average tens of ms so the
// paper's 30 req/s arrival rate loads the system near capacity.
func TestCalibratedModelLatencies(t *testing.T) {
	sim := NewDefault()
	var total time.Duration
	lat := map[string]time.Duration{}
	for _, m := range models.BenchmarkAttNNs() {
		d := accel.ModelLatency(sim, m, attnState(0.9))
		lat[m.Name] = d
		total += d
	}
	mean := total / 3
	if mean < 10*time.Millisecond || mean > 60*time.Millisecond {
		t.Errorf("benchmark AttNN mean latency = %v, want within [10ms, 60ms]", mean)
	}
	// BERT (S=384) must be the slowest, BART (S=128) the fastest.
	if !(lat["bert"] > lat["gpt2"] && lat["gpt2"] > lat["bart"]) {
		t.Errorf("model latency ordering wrong: %v", lat)
	}
}

func TestClamping(t *testing.T) {
	sim := NewDefault()
	l := models.GPT2Small().Layers[0]
	if d := layerLatency(sim, &l, attnState(1.5)); d <= 0 {
		t.Errorf("as>1 produced non-positive latency %v", d)
	}
	if d := layerLatency(sim, &l, attnState(-1)); d < layerLatency(sim, &l, attnState(0)) {
		t.Error("as<0 accelerated the layer")
	}
}

// TestNonAttentionFallback: the simulator accepts plain layers (it is the
// NPU for the whole model, including any classifier head).
func TestNonAttentionFallback(t *testing.T) {
	sim := NewDefault()
	l := models.Layer{Name: "head", Kind: models.FC, Cin: 768, Cout: 2}
	if d := layerLatency(sim, &l, attnState(0.9)); d <= 0 {
		t.Errorf("FC fallback latency %v", d)
	}
}

func TestWeightRateIgnoredForAttention(t *testing.T) {
	sim := NewDefault()
	l := models.BERTBase().Layers[0]
	a := layerLatency(sim, &l, accel.LayerSparsity{ActivationSparsity: 0.9})
	b := layerLatency(sim, &l, accel.LayerSparsity{ActivationSparsity: 0.9, WeightRate: 0.9})
	if a != b {
		t.Errorf("weight rate changed AttNN latency: %v vs %v", a, b)
	}
}

func TestInterface(t *testing.T) {
	sim := NewDefault()
	if sim.Name() != "sanger" {
		t.Errorf("Name = %q", sim.Name())
	}
	if sim.Family() != models.AttNN {
		t.Errorf("Family = %v", sim.Family())
	}
	if sim.Config().DensePEs != 1024 {
		t.Errorf("default DensePEs = %d", sim.Config().DensePEs)
	}
}
