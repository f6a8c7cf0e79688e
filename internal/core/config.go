// Package core implements the paper's primary contribution: Dysta, the
// bi-level dynamic and static scheduler for sparse multi-DNN workloads
// (paper §4), together with its sparse latency predictor (§5.1, Alg. 3).
//
// The two levels map onto the paper's software/hardware split:
//
//   - The static (software) level runs at request arrival (Alg. 1): it
//     looks up the model-info LUT for the request's model-pattern pair and
//     assigns an initial score Lat + beta*(SLO - Lat), balancing
//     shortest-job-first (ANTT) against slack urgency (SLO violations).
//   - The dynamic (hardware) level runs at every layer completion
//     (Alg. 2): a hardware monitor reports the layer's observed sparsity,
//     the sparse latency predictor refines the request's remaining-time
//     estimate, and all queued requests are re-scored as
//     Remain + eta*(Slack + Penalty); the minimum runs next.
//
// NewOracle builds the paper's Oracle upper bound (§6.4) from the same
// scheduler: Dysta scoring ground-truth latencies instead of predictions.
//
// The behavioural FP16 hardware implementation of the dynamic level lives
// in internal/hwsched; this package is the algorithmic reference.
package core

import (
	"fmt"
	"math"
)

// Strategy selects how the sparsity coefficient gamma aggregates monitored
// layer sparsity (paper §5.1, Table 4).
type Strategy int

const (
	// LastOne derives gamma from the most recently executed layer only —
	// the paper's choice, cheapest in hardware and matching average-all
	// in accuracy.
	LastOne Strategy = iota
	// LastN averages the last N executed layers.
	LastN
	// AverageAll averages every executed layer.
	AverageAll
)

// String returns the strategy name used in Table 4.
func (s Strategy) String() string {
	switch s {
	case LastOne:
		return "last-one"
	case LastN:
		return "last-n"
	case AverageAll:
		return "average-all"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// CoeffMode selects the space in which the sparsity coefficient gamma is
// formed. SparsityRatio is the paper's Alg. 3 line 6 (monitored divided by
// average layer sparsity) and the default; DensityRatio forms the
// analogous ratio over non-zero fractions, which can be more stable when
// sparsity sits near zero. Either way the coefficient is mapped to latency
// through the profiled linear model (see Predictor).
type CoeffMode int

const (
	// SparsityRatio is gamma = monitored / average (Alg. 3 line 6).
	SparsityRatio CoeffMode = iota
	// DensityRatio is gamma = (1 - monitored) / (1 - average).
	DensityRatio
)

// String returns the mode name.
func (m CoeffMode) String() string {
	if m == DensityRatio {
		return "density-ratio"
	}
	return "sparsity-ratio"
}

// Config parameterizes Dysta. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// Beta weighs slack in the static score (Alg. 1 line 7). Beta = 0 is
	// pure SJF on profiled averages; Beta = 1 is pure slack ordering.
	Beta float64
	// Eta weighs slack plus penalty in the dynamic score (Alg. 2
	// line 11). Eta = 0 is sparsity-refined SJF; Eta = 1 approaches EDF.
	Eta float64
	// Alpha scales predicted latency by how effectively the hardware
	// turns sparsity into latency reduction (Alg. 3 line 7). The
	// benchmark accelerators support both weight and activation
	// sparsity, so the paper sets Alpha = 1.
	Alpha float64
	// Strategy picks the gamma aggregation (Table 4).
	Strategy Strategy
	// N is the window for the LastN strategy (the paper grid-searches
	// N = 3).
	N int
	// Mode picks the gamma formula (see CoeffMode).
	Mode CoeffMode
	// PenaltyWeight converts the dimensionless preemption penalty
	// (Alg. 2 line 10) into score units (milliseconds).
	PenaltyWeight float64
	// DynamicEnabled switches the second (hardware) level on. Disabling
	// it yields the paper's Dysta-w/o-sparse ablation (Fig. 13): requests
	// keep their static arrival-time scores forever.
	DynamicEnabled bool
	// GammaClamp bounds the sparsity coefficient for robustness against
	// near-zero average densities.
	GammaClamp float64
	// DemotionMS is added to the score of a request whose refined
	// estimate says it can no longer meet its deadline, so that
	// already-lost requests stop delaying feasible ones. A bounded
	// constant (rather than absolute demotion) caps the ANTT damage to
	// the demoted requests. 0 disables. This is a documented refinement
	// of the literal Alg. 2 (DESIGN.md §6).
	DemotionMS float64
	// LiteralAlg3 switches the predictor to the paper's Alg. 3 line 7
	// verbatim: T = Alpha * gamma * Lat_avg (the coefficient scales the
	// average latency proportionally), instead of mapping gamma through
	// the profiled latency-vs-sparsity slopes. On substrates where
	// latency is linear but not proportional in sparsity the literal
	// form mis-tracks (see Table 4's "literal" column); it exists for
	// fidelity comparison.
	LiteralAlg3 bool
}

// DefaultConfig returns the tuned Dysta configuration used across the
// evaluation.
func DefaultConfig() Config {
	return Config{
		Beta:           0.4,
		Eta:            0.05,
		Alpha:          1.0,
		Strategy:       LastOne,
		N:              3,
		Mode:           SparsityRatio,
		PenaltyWeight:  1.0,
		DynamicEnabled: true,
		GammaClamp:     8.0,
		DemotionMS:     1000,
	}
}

// WithoutSparse returns the configuration of the Dysta-w/o-sparse
// ablation: the static software level only.
func (c Config) WithoutSparse() Config {
	c.DynamicEnabled = false
	return c
}

// Validate reports configuration errors. Every check fails on NaN, and
// every float must be finite: Inf or NaN scores order nothing.
func (c Config) Validate() error {
	if !(c.Beta >= 0 && c.Beta <= 1) {
		return fmt.Errorf("core: Beta %v outside [0,1]", c.Beta)
	}
	if !(c.Eta >= 0 && c.Eta <= 1) {
		return fmt.Errorf("core: Eta %v outside [0,1]", c.Eta)
	}
	if !(c.Alpha > 0 && c.Alpha < math.Inf(1)) {
		return fmt.Errorf("core: Alpha %v not positive and finite", c.Alpha)
	}
	// The predictor keeps its window position in an int32.
	if c.Strategy == LastN && (c.N <= 0 || c.N > math.MaxInt32) {
		return fmt.Errorf("core: LastN strategy with N=%d", c.N)
	}
	if !(c.GammaClamp > 1 && c.GammaClamp < math.Inf(1)) {
		return fmt.Errorf("core: GammaClamp %v must be finite and exceed 1", c.GammaClamp)
	}
	// The pick's heap bounds need every term the dynamic score adds to
	// the remaining time to be non-negative (see Dysta.feasible).
	if !(c.PenaltyWeight >= 0 && c.PenaltyWeight < math.Inf(1)) {
		return fmt.Errorf("core: PenaltyWeight %v not finite and non-negative", c.PenaltyWeight)
	}
	if !(c.DemotionMS >= 0 && c.DemotionMS < math.Inf(1)) {
		return fmt.Errorf("core: DemotionMS %v not finite and non-negative", c.DemotionMS)
	}
	return nil
}
