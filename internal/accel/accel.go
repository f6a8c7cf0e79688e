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

// Density returns the non-zero activation fraction.
func (s LayerSparsity) Density() float64 { return 1 - s.ActivationSparsity }

// Accelerator is a per-layer latency model for one hardware target.
type Accelerator interface {
	// Name identifies the accelerator in traces and reports.
	Name() string
	// Family reports which model family the accelerator serves.
	Family() models.Family
	// LayerLatency returns the execution time of one layer under the
	// given sparsity state. Implementations must be deterministic and
	// must not modify the layer.
	LayerLatency(l *models.Layer, sp LayerSparsity) time.Duration
}

// ModelLatency sums LayerLatency over every layer of m with uniform
// sparsity state, a convenience for calibration and tests.
func ModelLatency(a Accelerator, m *models.Model, sp LayerSparsity) time.Duration {
	var total time.Duration
	for i := range m.Layers {
		total += a.LayerLatency(&m.Layers[i], sp)
	}
	return total
}
