// Package eyeriss implements the analytical Eyeriss-V2 performance model
// used as the sparse CNN accelerator of the benchmark (paper §3.3.2).
//
// Eyeriss-V2 (Chen et al., JETCAS 2019) is a row-stationary accelerator
// with 192 PEs in 16 clusters connected by a hierarchical mesh NoC. It
// skips ineffectual MACs arising from both weight sparsity (static, known
// per model-pattern pair) and activation sparsity (dynamic, per sample) —
// the property that makes per-sample latency input-dependent and motivates
// Dysta's dynamic scheduler.
//
// The model is an analytical roofline: per-layer latency is the maximum of
// a compute term (effective MACs over the PE array's sparse throughput) and
// a memory term (compressed weight + activation traffic over DRAM
// bandwidth), plus a fixed per-layer configuration overhead. An
// implementation-efficiency factor calibrates the analytical optimum
// against the throughput the Eyeriss-V2 paper measures on real sparse
// networks (~42.5 fps on sparse MobileNet); see DESIGN.md §2.
package eyeriss

import (
	"time"

	"sparsedysta/internal/accel"
	"sparsedysta/internal/models"
	"sparsedysta/internal/sparsity"
)

// Config holds the hardware parameters of the Eyeriss-V2 model. The zero
// value is not useful; start from DefaultConfig.
type Config struct {
	// PEs is the number of processing elements (16 clusters x 12).
	PEs int
	// ClockHz is the accelerator clock (the paper clocks it at 200 MHz).
	ClockHz float64
	// ImplEfficiency discounts the analytical peak for NoC stalls, buffer
	// refills and mapping fragmentation, calibrated against measured
	// Eyeriss-V2 throughput.
	ImplEfficiency float64
	// DRAMBytesPerCycle is the off-chip bandwidth in bytes per cycle.
	DRAMBytesPerCycle float64
	// BytesPerElement is the quantized datatype width (8-bit).
	BytesPerElement float64
	// LayerOverheadCycles is the fixed configuration cost per layer.
	LayerOverheadCycles float64
	// DWMapEfficiency is the extra mapping efficiency factor for
	// depthwise convolutions, which lack the channel-level reuse the
	// row-stationary dataflow exploits.
	DWMapEfficiency float64
	// GLBInputKB is the per-bank input-activation global-buffer capacity
	// in KB. The paper enlarges it from Eyeriss-V2's original 1.5 KB to
	// 2.5 KB so that large CNN layers' input-row slices fit on chip
	// (§6.1); a layer whose per-bank input slice exceeds the bank must
	// re-fetch its inputs from DRAM once per overflow factor.
	GLBInputKB float64
	// GLBBanks is the number of input-activation banks (one per PE
	// cluster).
	GLBBanks int
}

// DefaultConfig returns the Eyeriss-V2 configuration of the paper's
// evaluation: 192 PEs at 200 MHz with the enlarged 2.5 KB GLB banks.
func DefaultConfig() Config {
	return Config{
		PEs:                 192,
		ClockHz:             200e6,
		ImplEfficiency:      0.22,
		DRAMBytesPerCycle:   4,
		BytesPerElement:     1,
		LayerOverheadCycles: 2000,
		DWMapEfficiency:     0.5,
		GLBInputKB:          2.5,
		GLBBanks:            16,
	}
}

// OriginalGLBConfig returns the configuration with Eyeriss-V2's original
// 1.5 KB input-activation banks, for the GLB-size ablation motivating the
// paper's modification.
func OriginalGLBConfig() Config {
	cfg := DefaultConfig()
	cfg.GLBInputKB = 1.5
	return cfg
}

// Simulator is the Eyeriss-V2 analytical latency model. It is safe for
// concurrent use.
type Simulator struct {
	cfg Config
}

// New returns a Simulator with the given configuration.
func New(cfg Config) *Simulator { return &Simulator{cfg: cfg} }

// NewDefault returns a Simulator with DefaultConfig.
func NewDefault() *Simulator { return New(DefaultConfig()) }

// Name implements accel.Accelerator.
func (s *Simulator) Name() string { return "eyeriss-v2" }

// Family implements accel.Accelerator.
func (s *Simulator) Family() models.Family { return models.CNN }

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// mapEfficiency estimates how fully a layer's output rows occupy the PE
// array: work that does not divide evenly across PEs leaves the final wave
// partially idle.
func (s *Simulator) mapEfficiency(l *models.Layer) float64 {
	rows := int64(l.Cout) * int64(l.OutH)
	if l.Kind == models.FC {
		rows = int64(l.Cout)
	}
	if rows <= 0 {
		return 1
	}
	pes := int64(s.cfg.PEs)
	waves := (rows + pes - 1) / pes
	eff := float64(rows) / float64(waves*pes)
	if l.Kind == models.DWConv {
		eff *= s.cfg.DWMapEfficiency
	}
	return eff
}

// LayerLatency implements accel.Accelerator. Both weight and activation
// sparsity are zero-skipped; the realizable fraction of the ideal skip
// depends on the weight pattern (sparsity.DefaultEfficiency), and
// channel-wise masks see denser surviving activations (importance bias).
func (s *Simulator) LayerLatency(l *models.Layer, sp accel.LayerSparsity) time.Duration {
	density := sp.Density()
	if density < 0 {
		density = 0
	}
	weightKeep := 1 - sp.WeightRate
	if l.Kind == models.DWConv {
		// Depthwise layers are conventionally left unpruned (negligible
		// parameter count); only activation sparsity applies.
		weightKeep = 1
	}
	eff := sparsity.DefaultEfficiency(sp.Pattern)
	effDensity := density
	if sp.Pattern == sparsity.ChannelWise {
		// Surviving channels of a magnitude-pruned model carry denser
		// activations (see sparsity.LayerMask.ValidMACFraction).
		const importanceBias = 0.75
		effDensity = 1 - (1-density)*importanceBias
	}

	glb := s.glbOverflowFactor(l, density)
	effMACs := float64(l.MACs()) * weightKeep * effDensity
	throughput := float64(s.cfg.PEs) * eff.Compute * s.mapEfficiency(l) * s.cfg.ImplEfficiency
	computeCycles := effMACs / throughput * glb

	weightBytes := float64(l.Params()) * weightKeep * eff.Storage * s.cfg.BytesPerElement
	// Input activations are stored compressed (zero-skipping formats) and
	// re-streamed once per split mapping pass; outputs are written
	// uncompressed before the next layer's encoder.
	inBytes := float64(l.InputElems()) * density * s.cfg.BytesPerElement * glb
	actBytes := inBytes + float64(l.OutputElems())*s.cfg.BytesPerElement
	memCycles := (weightBytes + actBytes) / s.cfg.DRAMBytesPerCycle

	cycles := computeCycles
	if memCycles > cycles {
		cycles = memCycles
	}
	cycles += s.cfg.LayerOverheadCycles
	return time.Duration(cycles / s.cfg.ClockHz * float64(time.Second))
}

// glbOverflowFactor models the GLB capacity constraint of the
// row-stationary mapping: each PE cluster's bank must hold its slice of a
// KH-row input window (Cin x InW x KH compressed elements across the
// banks) for the window to be reused across output channels. A layer
// whose slice overflows the bank is split into multiple mapping passes,
// each re-streaming inputs and leaving the array partially idle — the
// reason the paper enlarges the banks from 1.5 KB to 2.5 KB for
// VGG/ResNet-scale layers (§6.1). The factor is the slow-down multiple
// (1 = fits).
func (s *Simulator) glbOverflowFactor(l *models.Layer, density float64) float64 {
	if s.cfg.GLBInputKB <= 0 || s.cfg.GLBBanks <= 0 || l.Kind == models.FC {
		return 1
	}
	slice := float64(l.Cin) * float64(l.InW) * float64(l.KH) * density *
		s.cfg.BytesPerElement / float64(s.cfg.GLBBanks)
	capacity := s.cfg.GLBInputKB * 1024
	if slice <= capacity {
		return 1
	}
	factor := slice / capacity
	if factor > 4 {
		factor = 4 // deeper tiling bounds the worst case
	}
	return factor
}

var _ accel.Accelerator = (*Simulator)(nil)
