package core

import (
	"math"
	"testing"

	"sparsedysta/internal/accel/sanger"
	"sparsedysta/internal/models"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
)

func bertStatsAndTraces(t *testing.T, profN, evalN int) (*trace.Stats, []trace.SampleTrace) {
	t.Helper()
	m := models.BERTBase()
	prof, err := trace.Build(sanger.NewDefault(), trace.BuildConfig{
		Model: m, Samples: profN, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	k := trace.NewKey(m.Name, sparsity.Dense)
	st, err := trace.Summarize(k, prof)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := trace.Build(sanger.NewDefault(), trace.BuildConfig{
		Model: m, Samples: evalN, Seed: 200})
	if err != nil {
		t.Fatal(err)
	}
	return st, eval
}

func TestStrategyString(t *testing.T) {
	if LastOne.String() != "last-one" || LastN.String() != "last-n" ||
		AverageAll.String() != "average-all" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Error("unknown strategy name wrong")
	}
	if DensityRatio.String() != "density-ratio" || SparsityRatio.String() != "sparsity-ratio" {
		t.Error("coeff mode names wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"beta negative", func(c *Config) { c.Beta = -0.1 }, false},
		{"beta above 1", func(c *Config) { c.Beta = 1.5 }, false},
		{"eta above 1", func(c *Config) { c.Eta = 2 }, false},
		{"eta negative", func(c *Config) { c.Eta = -0.1 }, false},
		{"alpha zero", func(c *Config) { c.Alpha = 0 }, false},
		{"last-n without window", func(c *Config) { c.Strategy = LastN; c.N = 0 }, false},
		{"last-n window past int32", func(c *Config) { c.Strategy = LastN; c.N = math.MaxInt32 + 1 }, false},
		{"last-n window at int32", func(c *Config) { c.Strategy = LastN; c.N = math.MaxInt32 }, true},
		{"gamma clamp 1", func(c *Config) { c.GammaClamp = 1 }, false},
		{"penalty weight negative", func(c *Config) { c.PenaltyWeight = -1 }, false},
		{"demotion negative", func(c *Config) { c.DemotionMS = -1 }, false},
		{"penalty weight zero", func(c *Config) { c.PenaltyWeight = 0 }, true},
		{"demotion zero", func(c *Config) { c.DemotionMS = 0 }, true},
		{"eta bounds", func(c *Config) { c.Eta = 1 }, true},
		{"eta 0", func(c *Config) { c.Eta = 0 }, true},
		{"beta NaN", func(c *Config) { c.Beta = nan }, false},
		{"eta NaN", func(c *Config) { c.Eta = nan }, false},
		{"alpha NaN", func(c *Config) { c.Alpha = nan }, false},
		{"alpha infinite", func(c *Config) { c.Alpha = inf }, false},
		{"gamma clamp NaN", func(c *Config) { c.GammaClamp = nan }, false},
		{"gamma clamp infinite", func(c *Config) { c.GammaClamp = inf }, false},
		{"penalty weight NaN", func(c *Config) { c.PenaltyWeight = nan }, false},
		{"penalty weight infinite", func(c *Config) { c.PenaltyWeight = inf }, false},
		{"demotion NaN", func(c *Config) { c.DemotionMS = nan }, false},
		{"demotion infinite", func(c *Config) { c.DemotionMS = inf }, false},
	} {
		c := DefaultConfig()
		tc.mutate(&c)
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestWithoutSparse(t *testing.T) {
	c := DefaultConfig().WithoutSparse()
	if c.DynamicEnabled {
		t.Error("WithoutSparse left dynamic enabled")
	}
	if !DefaultConfig().DynamicEnabled {
		t.Error("default config has dynamic disabled")
	}
}

func TestGammaBeforeObservation(t *testing.T) {
	st, _ := bertStatsAndTraces(t, 20, 1)
	p := NewPredictor(DefaultConfig(), st)
	if p.Gamma() != 1 {
		t.Errorf("initial gamma = %v, want 1", p.Gamma())
	}
	if p.Remaining(0) != st.AvgRemaining(0) {
		t.Errorf("initial Remaining = %v, want LUT average %v", p.Remaining(0), st.AvgRemaining(0))
	}
	if p.Observations() != 0 {
		t.Errorf("Observations = %d", p.Observations())
	}
}

func TestGammaTracksSparsity(t *testing.T) {
	st, _ := bertStatsAndTraces(t, 20, 1)
	cfg := DefaultConfig()
	avg := st.AvgLayerSparsity[0]

	// A sparser-than-average layer raises gamma above 1 (Alg. 3's
	// sparsity ratio) and must *lower* the remaining-latency estimate
	// below the LUT average (sparser runs faster).
	p := NewPredictor(cfg, st)
	p.Observe(0, avg+0.05)
	if g := p.Gamma(); g <= 1 {
		t.Errorf("sparser observation gave gamma %v <= 1", g)
	}
	if p.Remaining(1) >= st.AvgRemaining(1) {
		t.Errorf("sparser observation did not lower the estimate: %v >= %v",
			p.Remaining(1), st.AvgRemaining(1))
	}

	// A denser layer must raise the estimate.
	p2 := NewPredictor(cfg, st)
	p2.Observe(0, avg-0.05)
	if g := p2.Gamma(); g >= 1 {
		t.Errorf("denser observation gave gamma %v >= 1", g)
	}
	if p2.Remaining(1) <= st.AvgRemaining(1) {
		t.Errorf("denser observation did not raise the estimate: %v <= %v",
			p2.Remaining(1), st.AvgRemaining(1))
	}
}

// TestDensityRatioModeAgreesOnDirection verifies both coefficient spaces
// move the estimate the same way.
func TestDensityRatioModeAgreesOnDirection(t *testing.T) {
	st, _ := bertStatsAndTraces(t, 20, 1)
	cfg := DefaultConfig()
	cfg.Mode = DensityRatio
	avg := st.AvgLayerSparsity[0]
	p := NewPredictor(cfg, st)
	p.Observe(0, avg+0.05)
	if p.Remaining(1) >= st.AvgRemaining(1) {
		t.Errorf("density-ratio mode: sparser observation did not lower the estimate")
	}
}

func TestGammaStrategies(t *testing.T) {
	st, _ := bertStatsAndTraces(t, 20, 1)
	obs := []float64{0.95, 0.85, 0.80, 0.90}
	mk := func(s Strategy, n int) *Predictor {
		cfg := DefaultConfig()
		cfg.Strategy = s
		cfg.N = n
		p := NewPredictor(cfg, st)
		for l, o := range obs {
			p.Observe(l, o)
		}
		return p
	}
	lastOne := mk(LastOne, 0).Gamma()
	avgAll := mk(AverageAll, 0).Gamma()
	last2 := mk(LastN, 2).Gamma()
	lastBig := mk(LastN, 100).Gamma()

	// last-one must equal the final ratio; with mixed observations the
	// three aggregates must differ.
	if lastOne == avgAll && avgAll == last2 {
		t.Error("all strategies produced identical gamma on mixed observations")
	}
	// LastN with a window larger than history equals average-all.
	if math.Abs(lastBig-avgAll) > 1e-12 {
		t.Errorf("LastN(100) = %v, AverageAll = %v", lastBig, avgAll)
	}
}

func TestGammaClamped(t *testing.T) {
	st, _ := bertStatsAndTraces(t, 20, 1)
	cfg := DefaultConfig()
	p := NewPredictor(cfg, st)
	// Monitored density of ~0 would blow the ratio up without clamping.
	p.Observe(0, 0.999999)
	if g := p.Gamma(); g < 1/cfg.GammaClamp-1e-9 || g > cfg.GammaClamp+1e-9 {
		t.Errorf("gamma %v escaped clamp [%v, %v]", g, 1/cfg.GammaClamp, cfg.GammaClamp)
	}
}

func TestSparsityRatioMode(t *testing.T) {
	st, _ := bertStatsAndTraces(t, 20, 1)
	cfg := DefaultConfig()
	cfg.Mode = SparsityRatio
	p := NewPredictor(cfg, st)
	avg := st.AvgLayerSparsity[0]
	p.Observe(0, avg)
	if g := p.Gamma(); math.Abs(g-1) > 1e-9 {
		t.Errorf("sparsity-ratio gamma at the average = %v, want 1", g)
	}
}

// TestPredictorBeatsStaticEstimate is the heart of §5.1: with monitored
// sparsity (any strategy), remaining-latency RMSE must be materially lower
// than the static LUT estimate (gamma pinned to 1).
func TestPredictorBeatsStaticEstimate(t *testing.T) {
	st, eval := bertStatsAndTraces(t, 100, 100)
	static := DefaultConfig()
	static.GammaClamp = 1.0001 // pins gamma ~1: static estimate
	staticErr := EvaluatePredictor(static, st, eval)

	for _, s := range []Strategy{LastOne, LastN, AverageAll} {
		cfg := DefaultConfig()
		cfg.Strategy = s
		err := EvaluatePredictor(cfg, st, eval)
		if err.RMSE <= 0 {
			t.Fatalf("%v: RMSE = %v", s, err.RMSE)
		}
		if err.RMSE >= staticErr.RMSE*0.8 {
			t.Errorf("%v RMSE %.6f not materially below static %.6f",
				s, err.RMSE, staticErr.RMSE)
		}
	}
}

// TestTable4Shape verifies the paper's Table 4 finding: average-all and
// last-one perform comparably (within 2x of each other).
func TestTable4Shape(t *testing.T) {
	st, eval := bertStatsAndTraces(t, 100, 100)
	rmse := map[Strategy]float64{}
	for _, s := range []Strategy{LastOne, LastN, AverageAll} {
		cfg := DefaultConfig()
		cfg.Strategy = s
		rmse[s] = EvaluatePredictor(cfg, st, eval).RMSE
	}
	if r := rmse[LastOne] / rmse[AverageAll]; r > 2 || r < 0.5 {
		t.Errorf("last-one/average-all RMSE ratio %.2f outside [0.5, 2]", r)
	}
}

func TestEvaluatePredictorCounts(t *testing.T) {
	st, eval := bertStatsAndTraces(t, 20, 10)
	res := EvaluatePredictor(DefaultConfig(), st, eval)
	if res.Samples != 10 {
		t.Errorf("Samples = %d", res.Samples)
	}
	// 12-layer BERT gives 11 prediction points per trace.
	if res.Points != 10*11 {
		t.Errorf("Points = %d, want 110", res.Points)
	}
	if res.NormalizedRMSE <= 0 {
		t.Errorf("NormalizedRMSE = %v", res.NormalizedRMSE)
	}
	empty := EvaluatePredictor(DefaultConfig(), st, nil)
	if empty.RMSE != 0 || empty.Points != 0 {
		t.Errorf("empty evaluation nonzero: %+v", empty)
	}
}

func TestPredictorIsolated(t *testing.T) {
	st, _ := bertStatsAndTraces(t, 20, 1)
	p := NewPredictor(DefaultConfig(), st)
	if p.Isolated() != st.AvgTotal {
		t.Errorf("initial Isolated = %v, want %v", p.Isolated(), st.AvgTotal)
	}
	p.Observe(0, st.AvgLayerSparsity[0]-0.05)
	if p.Isolated() <= st.AvgTotal {
		t.Error("denser sample did not raise the isolated estimate")
	}
}

func TestSafeRatio(t *testing.T) {
	if got := safeRatio(1, 0, 8); got != 1 {
		t.Errorf("safeRatio with zero denominator = %v", got)
	}
	if got := safeRatio(100, 1, 8); got != 8 {
		t.Errorf("safeRatio clamp high = %v", got)
	}
	if got := safeRatio(1, 100, 8); got != 0.125 {
		t.Errorf("safeRatio clamp low = %v", got)
	}
}

// TestLiteralAlg3Mode verifies the verbatim Alg. 3 form is selectable and
// behaves as documented: it scales the average proportionally by gamma
// (so a gamma of ~1.05 at sparsity 0.9 moves the estimate by ~5%), and on
// this substrate its remaining-latency RMSE is no better than the
// slope-mapped linear model.
func TestLiteralAlg3Mode(t *testing.T) {
	st, eval := bertStatsAndTraces(t, 100, 100)

	literal := DefaultConfig()
	literal.LiteralAlg3 = true
	p := NewPredictor(literal, st)
	avg := st.AvgLayerSparsity[0]
	p.Observe(0, avg*1.05)
	wantNS := float64(st.AvgRemaining(1)) * p.Gamma()
	if got := float64(p.Remaining(1)); math.Abs(got-wantNS) > 1 {
		t.Errorf("literal remaining = %v ns, want gamma-scaled %v ns", got, wantNS)
	}

	linear := DefaultConfig()
	litErr := EvaluatePredictor(literal, st, eval)
	linErr := EvaluatePredictor(linear, st, eval)
	if litErr.RMSE < linErr.RMSE {
		t.Errorf("literal Alg.3 RMSE %.6f unexpectedly beats the linear model %.6f",
			litErr.RMSE, linErr.RMSE)
	}
}
