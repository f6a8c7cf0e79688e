// Package accel defines the accelerator abstraction of the Sparse-DySta
// evaluation methodology (paper §3.3.2, Fig. 7 "Phase 1"): a hardware
// performance model that maps one layer plus its sparsity state to a
// latency. Two implementations live in subpackages: accel/eyeriss for
// sparse CNNs and accel/sanger for sparse attention NNs.
package accel

import (
	"time"

	"sparsedysta/internal/models"
	"sparsedysta/internal/sparsity"
)

// LayerSparsity carries the sparsity state of one layer execution: the
// static weight-side configuration and the dynamic, input-dependent
// activation (or attention) sparsity of the current sample.
type LayerSparsity struct {
	// Pattern is the weight sparsity pattern of the model instance.
	Pattern sparsity.Pattern
	// WeightRate is the static weight sparsity in [0,1). Zero for AttNN
	// models, whose benchmark sparsification is dynamic (paper §3.2).
	WeightRate float64
	// ActivationSparsity is the dynamic sparsity of this sample at this
	// layer: ReLU-induced activation sparsity for CNNs, pruned-attention
	// sparsity for AttNNs. In [0,1].
	ActivationSparsity float64
}

// Accelerator is a latency model for one hardware target, split the way
// Dysta splits sparsity (DESIGN.md §7, "Planned Phase 1"): Plan resolves
// every term of a model's layer latencies that the static weight pattern
// and rate fix, once per model, and the returned Plan applies each
// sample's dynamic sparsity to them. The plan is the accelerator's one
// latency formula.
type Accelerator interface {
	// Name identifies the accelerator in traces and reports.
	Name() string
	// Family reports which model family the accelerator serves.
	Family() models.Family
	// Plan returns the latency plan of m under the given weight pattern
	// and rate. Implementations must be deterministic and must not
	// modify m; the plan reads nothing of m after Plan returns.
	Plan(m *models.Model, pattern sparsity.Pattern, weightRate float64) Plan
}

// Plan is one model's latency model under a fixed static sparsity
// configuration. It is safe for concurrent use.
type Plan interface {
	// Latencies sets lat[l] to the execution time of layer l when the
	// sample's dynamic sparsity there is sp[l]. Both slices hold one
	// entry per layer of the planned model.
	Latencies(lat []time.Duration, sp []float64)
}

// ModelLatency sums the layer latencies of m with uniform sparsity state,
// a convenience for calibration and tests.
func ModelLatency(a Accelerator, m *models.Model, sp LayerSparsity) time.Duration {
	lat := make([]time.Duration, m.NumLayers())
	row := make([]float64, len(lat))
	for l := range row {
		row[l] = sp.ActivationSparsity
	}
	a.Plan(m, sp.Pattern, sp.WeightRate).Latencies(lat, row)
	var total time.Duration
	for _, d := range lat {
		total += d
	}
	return total
}
