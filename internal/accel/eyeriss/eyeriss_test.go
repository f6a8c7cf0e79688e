package eyeriss

import (
	"testing"
	"time"

	"sparsedysta/internal/accel"
	"sparsedysta/internal/models"
	"sparsedysta/internal/sparsity"
)

func denseState() accel.LayerSparsity {
	return accel.LayerSparsity{Pattern: sparsity.Dense}
}

func TestLatencyPositive(t *testing.T) {
	sim := NewDefault()
	for _, m := range models.BenchmarkCNNs() {
		for _, l := range m.Layers {
			if d := sim.LayerLatency(&l, denseState()); d <= 0 {
				t.Errorf("%s/%s: non-positive latency %v", m.Name, l.Name, d)
			}
		}
	}
}

func TestSparsityReducesLatency(t *testing.T) {
	sim := NewDefault()
	l := models.VGG16().Layers[2] // conv2_1, solidly compute bound
	dense := sim.LayerLatency(&l, denseState())
	weightSparse := sim.LayerLatency(&l, accel.LayerSparsity{
		Pattern: sparsity.RandomPointwise, WeightRate: 0.8})
	actSparse := sim.LayerLatency(&l, accel.LayerSparsity{
		Pattern: sparsity.Dense, ActivationSparsity: 0.5})
	both := sim.LayerLatency(&l, accel.LayerSparsity{
		Pattern: sparsity.RandomPointwise, WeightRate: 0.8, ActivationSparsity: 0.5})
	if weightSparse >= dense {
		t.Errorf("weight sparsity did not speed up: %v >= %v", weightSparse, dense)
	}
	if actSparse >= dense {
		t.Errorf("activation sparsity did not speed up: %v >= %v", actSparse, dense)
	}
	if both >= weightSparse || both >= actSparse {
		t.Errorf("combined sparsity (%v) not faster than each alone (%v, %v)",
			both, weightSparse, actSparse)
	}
}

// TestPatternMatters verifies the core motivation of paper Fig. 1/4: the
// same sparsity rate with different patterns yields different latencies.
func TestPatternMatters(t *testing.T) {
	sim := NewDefault()
	l := models.ResNet50().Layers[10]
	lat := map[sparsity.Pattern]time.Duration{}
	for _, p := range []sparsity.Pattern{sparsity.RandomPointwise, sparsity.BlockNM, sparsity.ChannelWise} {
		lat[p] = sim.LayerLatency(&l, accel.LayerSparsity{
			Pattern: p, WeightRate: 0.8, ActivationSparsity: 0.4})
	}
	if lat[sparsity.RandomPointwise] == lat[sparsity.BlockNM] &&
		lat[sparsity.BlockNM] == lat[sparsity.ChannelWise] {
		t.Errorf("all patterns yield identical latency %v", lat)
	}
	// Random suffers the worst load balance, so at identical rates it
	// should not be the fastest structured option.
	if lat[sparsity.RandomPointwise] < lat[sparsity.BlockNM] {
		t.Errorf("random (%v) faster than N:M (%v)",
			lat[sparsity.RandomPointwise], lat[sparsity.BlockNM])
	}
}

// TestCalibratedModelLatencies pins whole-model sparse latencies to the
// calibration targets derived in DESIGN.md: sparse MobileNet near the
// Eyeriss-V2 paper's measured ~24 ms, and the four-model benchmark mix
// averaging a few hundred ms so that the paper's 3 req/s arrival rate
// produces a moderately loaded system.
func TestCalibratedModelLatencies(t *testing.T) {
	sim := NewDefault()
	sp := accel.LayerSparsity{
		Pattern: sparsity.RandomPointwise, WeightRate: 0.8, ActivationSparsity: 0.45}

	mobile := accel.ModelLatency(sim, models.MobileNet(), sp)
	if mobile < 5*time.Millisecond || mobile > 80*time.Millisecond {
		t.Errorf("sparse MobileNet = %v, want within [5ms, 80ms]", mobile)
	}

	var total time.Duration
	for _, m := range models.BenchmarkCNNs() {
		total += accel.ModelLatency(sim, m, sp)
	}
	mean := total / 4
	if mean < 50*time.Millisecond || mean > 500*time.Millisecond {
		t.Errorf("benchmark CNN mean sparse latency = %v, want within [50ms, 500ms]", mean)
	}
}

func TestFCLayersMemoryBound(t *testing.T) {
	sim := NewDefault()
	// VGG-16 fc6 has 102.8M params: its latency must be dominated by the
	// weight-streaming memory term, so extra activation sparsity barely
	// helps while weight sparsity (fewer bytes) does.
	l := models.VGG16().Layers[13]
	if l.Kind != models.FC {
		t.Fatalf("layer 13 is %v, want fc", l.Kind)
	}
	base := sim.LayerLatency(&l, accel.LayerSparsity{Pattern: sparsity.RandomPointwise, WeightRate: 0.5})
	moreAct := sim.LayerLatency(&l, accel.LayerSparsity{
		Pattern: sparsity.RandomPointwise, WeightRate: 0.5, ActivationSparsity: 0.9})
	moreWeight := sim.LayerLatency(&l, accel.LayerSparsity{
		Pattern: sparsity.RandomPointwise, WeightRate: 0.9})
	if float64(base-moreAct) > 0.1*float64(base) {
		t.Errorf("fc6 activation sparsity changed latency by >10%%: %v -> %v", base, moreAct)
	}
	if moreWeight >= base {
		t.Errorf("fc6 weight sparsity did not reduce latency: %v -> %v", base, moreWeight)
	}
}

func TestMonotoneInActivationSparsity(t *testing.T) {
	sim := NewDefault()
	l := models.ResNet50().Layers[5]
	prev := time.Duration(1 << 62)
	for as := 0.0; as <= 0.9; as += 0.1 {
		d := sim.LayerLatency(&l, accel.LayerSparsity{
			Pattern: sparsity.RandomPointwise, WeightRate: 0.5, ActivationSparsity: as})
		if d > prev {
			t.Fatalf("latency increased with sparsity at as=%.1f: %v > %v", as, d, prev)
		}
		prev = d
	}
}

func TestSparsityClamped(t *testing.T) {
	sim := NewDefault()
	l := models.MobileNet().Layers[0]
	d := sim.LayerLatency(&l, accel.LayerSparsity{Pattern: sparsity.Dense, ActivationSparsity: 1.5})
	if d <= 0 {
		t.Errorf("over-range sparsity produced non-positive latency %v", d)
	}
	d2 := sim.LayerLatency(&l, accel.LayerSparsity{Pattern: sparsity.Dense, ActivationSparsity: -0.5})
	dense := sim.LayerLatency(&l, denseState())
	if d2 < dense {
		t.Errorf("negative sparsity accelerated the layer: %v < %v", d2, dense)
	}
}

func TestDepthwisePenalty(t *testing.T) {
	sim := NewDefault()
	dw := models.Layer{Name: "dw", Kind: models.DWConv, Cin: 512, Cout: 512,
		KH: 3, KW: 3, Stride: 1, InH: 14, InW: 14, OutH: 14, OutW: 14}
	st := models.Layer{Name: "c", Kind: models.Conv, Cin: 1, Cout: 512,
		KH: 3, KW: 3, Stride: 1, InH: 14, InW: 14, OutH: 14, OutW: 14}
	// Same MAC count, but the depthwise mapping is less efficient.
	if dw.MACs() != st.MACs() {
		t.Fatalf("test setup: MACs differ %d vs %d", dw.MACs(), st.MACs())
	}
	if sim.LayerLatency(&dw, denseState()) <= sim.LayerLatency(&st, denseState()) {
		t.Error("depthwise conv not slower than equal-MAC standard conv")
	}
}

func TestInterface(t *testing.T) {
	sim := NewDefault()
	if sim.Name() != "eyeriss-v2" {
		t.Errorf("Name = %q", sim.Name())
	}
	if sim.Family() != models.CNN {
		t.Errorf("Family = %v", sim.Family())
	}
	if sim.Config().PEs != 192 {
		t.Errorf("default PEs = %d, want 192", sim.Config().PEs)
	}
}

// TestGLBSizeMatters verifies the paper's §6.1 modification rationale:
// with the original 1.5 KB banks, dense-activation VGG-16 layers overflow
// the GLB and pay split-mapping passes; the paper's 2.5 KB banks mostly
// absorb them. Under the benchmark's compressed (sparse) activations both
// sizes fit — which is exactly why the enlarged design runs the benchmark
// unhindered.
func TestGLBSizeMatters(t *testing.T) {
	big := New(DefaultConfig())
	small := New(OriginalGLBConfig())
	denseAct := accel.LayerSparsity{Pattern: sparsity.Dense}
	vgg := models.VGG16()
	lBig := accel.ModelLatency(big, vgg, denseAct)
	lSmall := accel.ModelLatency(small, vgg, denseAct)
	if float64(lSmall) < 1.05*float64(lBig) {
		t.Errorf("dense VGG on 1.5KB GLB (%v) not materially slower than on 2.5KB (%v)",
			lSmall, lBig)
	}
	// At the benchmark's activation sparsity the compressed slices fit
	// both sizes: latencies agree within 10%.
	sparseAct := accel.LayerSparsity{
		Pattern: sparsity.RandomPointwise, WeightRate: 0.8, ActivationSparsity: 0.45}
	sBig := accel.ModelLatency(big, vgg, sparseAct)
	sSmall := accel.ModelLatency(small, vgg, sparseAct)
	if float64(sSmall) > 1.10*float64(sBig) {
		t.Errorf("sparse VGG should fit both GLB sizes: %v vs %v", sSmall, sBig)
	}

	cfg := DefaultConfig()
	cfg.GLBInputKB = 0
	off := New(cfg)
	l := vgg.Layers[2]
	if off.glbOverflowFactor(&l, 1.0) != 1 {
		t.Error("disabled GLB model still charges overflow")
	}
}

// TestGLBOverflowScalesWithDensity: compressed (sparse) activations fit
// the banks more easily.
func TestGLBOverflowScalesWithDensity(t *testing.T) {
	sim := New(OriginalGLBConfig())
	l := models.VGG16().Layers[1] // conv1_2: 64ch x 224 x 3 rows
	dense := sim.glbOverflowFactor(&l, 1.0)
	sparse := sim.glbOverflowFactor(&l, 0.3)
	if sparse >= dense {
		t.Errorf("sparse overflow factor %v not below dense %v", sparse, dense)
	}
	if dense <= 1 {
		t.Errorf("dense VGG conv1_2 should overflow the original 1.5KB banks, factor %v", dense)
	}
}
