package dataset

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"sparsedysta/internal/models"
	"sparsedysta/internal/rng"
	"sparsedysta/internal/stats"
)

func TestPresetsMatchModels(t *testing.T) {
	for _, name := range models.Names() {
		m, _ := models.ByName(name)
		p := DefaultPreset(m)
		if err := p.Validate(m); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestValidateRejectsMismatch(t *testing.T) {
	m := models.MobileNet()
	p := DefaultPreset(models.VGG16())
	if err := p.Validate(m); err == nil {
		t.Error("mismatched preset accepted")
	}
	if _, err := NewStream(m, p, 1); err == nil {
		t.Error("NewStream accepted mismatched preset")
	}
	bad := DefaultPreset(m)
	bad.Lo, bad.Hi = 0.9, 0.1
	if err := bad.Validate(m); err == nil {
		t.Error("empty clamp range accepted")
	}
}

func TestSamplesInRange(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		m := models.ResNet50()
		s := MustStream(m, DefaultPreset(m), seed)
		for i := 0; i < 20; i++ {
			sm := s.Next()
			if len(sm.Sparsity) != m.NumLayers() {
				return false
			}
			for _, v := range sm.Sparsity {
				if v < 0 || v > 0.95 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDeterministic(t *testing.T) {
	m := models.BERTBase()
	a := MustStream(m, DefaultPreset(m), 7).Draw(10)
	b := MustStream(m, DefaultPreset(m), 7).Draw(10)
	for i := range a {
		for l := range a[i].Sparsity {
			if a[i].Sparsity[l] != b[i].Sparsity[l] {
				t.Fatalf("sample %d layer %d differs", i, l)
			}
		}
	}
}

// TestFillMatchesNext: Fill draws into a caller's row exactly the
// sample Next returns, overwriting every entry, the structurally dense
// layers' zeros included.
func TestFillMatchesNext(t *testing.T) {
	for _, m := range []*models.Model{models.VGG16(), models.BERTBase()} {
		a := MustStream(m, DefaultPreset(m), 5)
		b := MustStream(m, DefaultPreset(m), 5)
		row := make([]float64, m.NumLayers())
		for i := 0; i < 50; i++ {
			for l := range row {
				row[l] = math.NaN()
			}
			want := a.Next()
			if dark := b.Fill(row); dark != want.Dark || !reflect.DeepEqual(row, want.Sparsity) {
				t.Fatalf("%s sample %d: Fill %v (dark %v), Next %v (dark %v)", m.Name, i, row, dark, want.Sparsity, want.Dark)
			}
		}
	}
}

func TestFirstCNNLayerDense(t *testing.T) {
	m := models.VGG16()
	s := MustStream(m, VisionPreset(m, true), 3)
	for i := 0; i < 50; i++ {
		if got := s.Next().Sparsity[0]; got != 0 {
			t.Fatalf("first-layer activation sparsity = %v, want 0 (raw image)", got)
		}
	}
}

// TestTable2RelativeRanges verifies the calibration against the paper's
// Table 2: the network-sparsity relative range must land near the reported
// per-model values, and GoogLeNet must spread the widest while ResNet-50
// spreads the narrowest.
func TestTable2RelativeRanges(t *testing.T) {
	paper := map[string]float64{
		"googlenet":   0.283,
		"vgg16":       0.218,
		"inceptionv3": 0.230,
		"resnet50":    0.151,
	}
	const n = 4000
	got := map[string]float64{}
	for name, want := range paper {
		m, _ := models.ByName(name)
		s := MustStream(m, VisionPreset(m, true), 42)
		net := make([]float64, n)
		for i := range net {
			net[i] = s.Next().NetworkSparsity()
		}
		rr := stats.RelativeRange(net)
		got[name] = rr
		if math.Abs(rr-want) > 0.5*want {
			t.Errorf("%s relative range = %.3f, paper %.3f (within 50%% band)", name, rr, want)
		}
	}
	if !(got["googlenet"] > got["resnet50"]) {
		t.Errorf("ordering violated: googlenet %.3f <= resnet50 %.3f",
			got["googlenet"], got["resnet50"])
	}
}

// TestFig3LayerSpread verifies the per-layer sparsity spread of the last
// six layers stays in the band the paper profiles (roughly 10-45% for most
// layers, up to ~70% for VGG).
func TestFig3LayerSpread(t *testing.T) {
	for _, name := range []string{"resnet50", "vgg16"} {
		m, _ := models.ByName(name)
		s := MustStream(m, VisionPreset(m, true), 11)
		const n = 2000
		nl := m.NumLayers()
		last6 := make([][]float64, 6)
		for i := range last6 {
			last6[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			sp := s.Next().Sparsity
			for j := 0; j < 6; j++ {
				last6[j][i] = sp[nl-6+j]
			}
		}
		for j, series := range last6 {
			mean := stats.Mean(series)
			if mean < 0.10 || mean > 0.80 {
				t.Errorf("%s layer[-%d] mean sparsity %.3f outside [0.10, 0.80]", name, 6-j, mean)
			}
			spread := stats.Max(series) - stats.Min(series)
			if spread < 0.05 {
				t.Errorf("%s layer[-%d] spread %.3f too narrow for Fig. 3", name, 6-j, spread)
			}
		}
	}
}

// TestFig9Correlation verifies the inter-layer Pearson correlation of
// AttNN sparsity is strong (the paper reports ~0.8-1.0 for BERT and
// GPT-2), the property justifying Dysta's linear latency predictor.
func TestFig9Correlation(t *testing.T) {
	for _, name := range []string{"bert", "gpt2"} {
		m, _ := models.ByName(name)
		s := MustStream(m, LanguagePreset(m), 13)
		corr := Correlation(s, 2000)
		var sum float64
		var count int
		for i := range corr {
			for j := range corr {
				if i != j {
					sum += corr[i][j]
					count++
				}
			}
		}
		if mean := sum / float64(count); mean < 0.75 {
			t.Errorf("%s mean inter-layer correlation = %.3f, want >= 0.75", name, mean)
		}
	}
}

// TestAttNNSparsityLevels verifies the threshold calibration of §3.2: BERT
// and GPT-2 (threshold 0.002) are much sparser than BART (threshold 0.2).
func TestAttNNSparsityLevels(t *testing.T) {
	level := func(name string) float64 {
		m, _ := models.ByName(name)
		s := MustStream(m, LanguagePreset(m), 17)
		var agg stats.Running
		for i := 0; i < 500; i++ {
			agg.Add(s.Next().NetworkSparsity())
		}
		return agg.Mean()
	}
	bert, gpt2, bart := level("bert"), level("gpt2"), level("bart")
	if bert < 0.82 || bert > 0.95 {
		t.Errorf("BERT mean attention sparsity = %.3f, want ~0.9", bert)
	}
	if gpt2 < 0.80 || gpt2 > 0.95 {
		t.Errorf("GPT-2 mean attention sparsity = %.3f, want ~0.88", gpt2)
	}
	if bart > bert || bart > gpt2 {
		t.Errorf("BART (%.3f) should be less sparse than BERT (%.3f) and GPT-2 (%.3f)",
			bart, bert, gpt2)
	}
}

// TestDarkSamplesAreSparser verifies the low-light mixture shifts samples
// toward higher sparsity, the paper's ExDark/DarkFace observation.
func TestDarkSamplesAreSparser(t *testing.T) {
	m := models.ResNet50()
	s := MustStream(m, VisionPreset(m, true), 19)
	var dark, light stats.Running
	for i := 0; i < 4000; i++ {
		sm := s.Next()
		if sm.Dark {
			dark.Add(sm.NetworkSparsity())
		} else {
			light.Add(sm.NetworkSparsity())
		}
	}
	if dark.N() == 0 || light.N() == 0 {
		t.Fatal("mixture produced no samples on one side")
	}
	if dark.Mean() <= light.Mean() {
		t.Errorf("dark mean %.3f not above light mean %.3f", dark.Mean(), light.Mean())
	}
	frac := float64(dark.N()) / 4000
	if math.Abs(frac-0.25) > 0.05 {
		t.Errorf("dark fraction = %.3f, want ~0.25", frac)
	}
}

func TestLowLightIncreasesSpread(t *testing.T) {
	m := models.VGG16()
	plain := MustStream(m, VisionPreset(m, false), 23)
	mixed := MustStream(m, VisionPreset(m, true), 23)
	rr := func(s *Stream) float64 {
		net := make([]float64, 2000)
		for i := range net {
			net[i] = s.Next().NetworkSparsity()
		}
		return stats.RelativeRange(net)
	}
	if rrPlain, rrMixed := rr(plain), rr(mixed); rrMixed <= rrPlain {
		t.Errorf("low-light mixture did not widen the range: %.3f <= %.3f", rrMixed, rrPlain)
	}
}

func TestChannelDensities(t *testing.T) {
	r := rng.New(29)
	d := ChannelDensities(r, 256, 0.55, 0.1)
	if len(d) != 256 {
		t.Fatalf("len = %d", len(d))
	}
	for _, v := range d {
		if v < 0 || v > 1 {
			t.Fatalf("density %v out of [0,1]", v)
		}
	}
	if m := stats.Mean(d); math.Abs(m-0.55) > 0.05 {
		t.Errorf("mean channel density = %.3f, want ~0.55", m)
	}
	if stats.StdDev(d) < 0.02 {
		t.Error("channel densities have no spread")
	}
}

func TestCorrelationMatrixShape(t *testing.T) {
	m := models.BARTBase()
	s := MustStream(m, DefaultPreset(m), 31)
	corr := Correlation(s, 200)
	if len(corr) != m.NumLayers() {
		t.Fatalf("correlation matrix is %dx?, want %d", len(corr), m.NumLayers())
	}
	for i := range corr {
		if corr[i][i] != 1 {
			t.Errorf("diagonal [%d] = %v", i, corr[i][i])
		}
	}
}
