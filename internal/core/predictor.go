package core

import (
	"time"

	"sparsedysta/internal/stats"
	"sparsedysta/internal/trace"
)

// Predictor is the sparse latency predictor of paper §5.1 (Alg. 3) for one
// in-flight request.
//
// The hardware monitor reports each completed layer's observed sparsity.
// The predictor maintains the sparsity coefficient gamma — the ratio of
// monitored to average layer sparsity, aggregated by the configured
// strategy (Alg. 3 line 6, Table 4) — and maps it to latency through the
// linear model the paper motivates from the inter-layer correlation of
// Fig. 9 ("monitor the layer sparsity at runtime and adopt a linear model
// for sparse latency prediction"):
//
//	s_hat[l]  = gamma * AvgSparsity[l]                  (future layers)
//	T_remain  = Alpha * ( AvgRemaining(next)
//	                    + (gamma-1) * SensitivityRemaining(next) )
//
// where the per-layer latency-vs-sparsity slopes inside
// SensitivityRemaining come from the offline profiling LUTs (the "shape"
// LUT of the hardware design, §5.2.1). With CoeffMode DensityRatio the
// same construction is applied in density space.
type Predictor struct {
	// cfg is the owning scheduler's configuration, shared by all of its
	// predictors rather than copied into each request's state.
	cfg   *Config
	stats *trace.Stats
	// gamma is the current coefficient under the configured strategy,
	// maintained incrementally by Observe so Gamma — and therefore every
	// score the scheduler computes — is O(1) regardless of how many
	// layers have executed.
	gamma float64
	// sum is the running sum of all ratios (AverageAll). Ratios are
	// accumulated in execution order, so the mean is bit-identical to a
	// from-scratch summation over the history.
	sum float64
	// window is a chronological ring buffer of the last cfg.N ratios
	// (LastN only; allocated lazily), with wpos the slot the next ratio
	// overwrites — i.e. the oldest entry once the window has filled.
	window []float64
	// count is the number of observed layers. It and wpos are int32s,
	// side by side in one word: a layer count fits, and the 8 bytes they
	// save pay for the free-list link of the scheduler state that embeds
	// the predictor, so that state stays 112 bytes.
	count, wpos int32
}

// NewPredictor returns a Predictor over the LUT entry for the request's
// model-pattern pair, under its own copy of cfg.
func NewPredictor(cfg Config, st *trace.Stats) *Predictor {
	p := &Predictor{}
	p.reset(&cfg, st)
	return p
}

// reset makes p a fresh predictor for st under cfg, writing its fields
// in place, for state that embeds one and is recycled. p keeps the
// pointer, so cfg must not change while p is in use. Only the LastN
// window buffer is kept: Observe writes each of its slots before the
// mean reads it.
func (p *Predictor) reset(cfg *Config, st *trace.Stats) {
	p.cfg, p.stats = cfg, st
	p.gamma, p.count, p.sum, p.wpos = 1, 0, 0, 0
}

// Observe records the hardware monitor's sparsity reading for a completed
// layer and folds it into the running gamma aggregate (Alg. 3 line 6).
func (p *Predictor) Observe(layer int, monitored float64) {
	avg := p.stats.AvgLayerSparsity[layer]
	var ratio float64
	switch p.cfg.Mode {
	case DensityRatio:
		ratio = safeRatio(1-monitored, 1-avg, p.cfg.GammaClamp)
	default: // SparsityRatio, the paper's Alg. 3 line 6
		ratio = safeRatio(monitored, avg, p.cfg.GammaClamp)
	}
	p.count++
	switch p.cfg.Strategy {
	case AverageAll:
		p.sum += ratio
		p.gamma = p.sum / float64(p.count)
	case LastN:
		if p.window == nil {
			p.window = make([]float64, p.cfg.N)
		}
		p.window[p.wpos] = ratio
		p.wpos = (p.wpos + 1) % int32(p.cfg.N)
		// Mean over the window in chronological order: once full, the
		// oldest entry sits at wpos.
		n := min(int(p.count), p.cfg.N)
		start := 0
		if n == p.cfg.N {
			start = int(p.wpos)
		}
		var sum float64
		for i := 0; i < n; i++ {
			sum += p.window[(start+i)%p.cfg.N]
		}
		p.gamma = sum / float64(n)
	default: // LastOne
		p.gamma = ratio
	}
}

// safeRatio returns num/den clamped to [1/clamp, clamp], treating a
// degenerate denominator as ratio 1.
func safeRatio(num, den, clamp float64) float64 {
	if den <= 1e-9 {
		return 1
	}
	return stats.Clamp(num/den, 1/clamp, clamp)
}

// Gamma returns the current sparsity coefficient under the configured
// strategy; 1 before any observation. O(1): the aggregate is maintained
// by Observe.
func (p *Predictor) Gamma() float64 { return p.gamma }

// predict maps the current gamma through the linear latency model for the
// given base latency and sensitivity (or scales the base proportionally
// under LiteralAlg3). Results are floored at a small fraction of the base
// to stay physical under extreme coefficients.
func (p *Predictor) predict(base time.Duration, sensitivity float64) time.Duration {
	var est float64
	if p.cfg.LiteralAlg3 {
		est = p.cfg.Alpha * p.Gamma() * float64(base)
	} else {
		est = p.cfg.Alpha * (float64(base) + (p.Gamma()-1)*sensitivity)
	}
	if floor := 0.05 * float64(base); est < floor {
		est = floor
	}
	return time.Duration(est)
}

// Remaining predicts the latency of layers nextLayer..end.
func (p *Predictor) Remaining(nextLayer int) time.Duration {
	base := p.stats.AvgRemaining(nextLayer)
	if base == 0 {
		return 0
	}
	return p.predict(base, p.sensitivity(nextLayer))
}

// Isolated predicts the request's end-to-end isolated latency with the
// current coefficient.
func (p *Predictor) Isolated() time.Duration {
	return p.predict(p.stats.AvgTotal, p.sensitivity(0))
}

// sensitivity selects the suffix sensitivity for the configured
// coefficient space.
func (p *Predictor) sensitivity(from int) float64 {
	if p.cfg.Mode == DensityRatio {
		return p.stats.SensitivityRemainingDensity(from)
	}
	return p.stats.SensitivityRemaining(from)
}

// Observations returns how many layers have been observed.
func (p *Predictor) Observations() int { return int(p.count) }

// PredictorError quantifies one prediction-vs-truth comparison of the
// Table 4 evaluation.
type PredictorError struct {
	// RMSE is the root-mean-square error of predicted remaining latency
	// in seconds, over all (sample, layer-position) pairs.
	RMSE float64
	// NormalizedRMSE divides by the mean isolated latency, making values
	// comparable across accelerators with different absolute scales.
	NormalizedRMSE float64
	// Samples and Points count the traces and prediction points used.
	Samples, Points int
}

// EvaluatePredictor replays traces through the predictor, predicting the
// remaining latency after each executed layer and comparing against ground
// truth — the paper's Table 4 experiment. The stats must come from a
// profiling set disjoint from the evaluated traces.
func EvaluatePredictor(cfg Config, st *trace.Stats, traces []trace.SampleTrace) PredictorError {
	var preds, truths []float64
	var meanIso float64
	for i := range traces {
		tr := &traces[i]
		p := NewPredictor(cfg, st)
		meanIso += tr.Total().Seconds()
		// After executing layer l (observing its sparsity), predict the
		// latency of layers l+1..end.
		for l := 0; l+1 < tr.NumLayers(); l++ {
			p.Observe(l, tr.LayerSparsity[l])
			preds = append(preds, p.Remaining(l+1).Seconds())
			truths = append(truths, tr.Remaining(l+1).Seconds())
		}
	}
	if len(preds) == 0 {
		return PredictorError{Samples: len(traces)}
	}
	rmse := stats.RMSE(preds, truths)
	meanIso /= float64(len(traces))
	norm := 0.0
	if meanIso > 0 {
		norm = rmse / meanIso
	}
	return PredictorError{
		RMSE:           rmse,
		NormalizedRMSE: norm,
		Samples:        len(traces),
		Points:         len(preds),
	}
}
