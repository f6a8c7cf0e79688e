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

// plan is one model's Eyeriss-V2 latency plan: the roofline terms that
// the static weight pattern and rate fix, resolved once per layer.
type plan struct {
	cfg Config
	// channelWise marks the channel-wise pattern, whose surviving
	// channels carry denser activations.
	channelWise bool
	layers      []layerPlan
}

// layerPlan holds one layer's static roofline terms. Each is an exact
// conversion of a count or a whole left-to-right prefix of the expression
// it stands in, so the per-sample step rounds every latency exactly as
// evaluating the whole expression for each sample does.
type layerPlan struct {
	// macsKeep is MACs x weight keep, the prefix of the effective MACs.
	macsKeep float64
	// throughput is the array's sparse MACs per cycle on the layer.
	throughput float64
	// weightBytes is the compressed weight traffic.
	weightBytes float64
	// inElems counts the input activations; outBytes is the uncompressed
	// output traffic.
	inElems, outBytes float64
	// glb reports whether the input-bank capacity bounds the layer;
	// glbRows is Cin x InW x KH, the prefix of its per-bank slice.
	glb     bool
	glbRows float64
}

// Plan implements accel.Accelerator. Both weight and activation sparsity
// are zero-skipped; the realizable fraction of the ideal skip depends on
// the weight pattern (sparsity.DefaultEfficiency), and channel-wise masks
// see denser surviving activations (importance bias).
func (s *Simulator) Plan(m *models.Model, pattern sparsity.Pattern, weightRate float64) accel.Plan {
	eff := sparsity.DefaultEfficiency(pattern)
	glb := s.cfg.GLBInputKB > 0 && s.cfg.GLBBanks > 0
	p := &plan{cfg: s.cfg, channelWise: pattern == sparsity.ChannelWise, layers: make([]layerPlan, len(m.Layers))}
	for i := range m.Layers {
		l := &m.Layers[i]
		weightKeep := 1 - weightRate
		if l.Kind == models.DWConv {
			// Depthwise layers are conventionally left unpruned (negligible
			// parameter count); only activation sparsity applies.
			weightKeep = 1
		}
		p.layers[i] = layerPlan{
			macsKeep:    float64(l.MACs()) * weightKeep,
			throughput:  float64(s.cfg.PEs) * eff.Compute * s.mapEfficiency(l) * s.cfg.ImplEfficiency,
			weightBytes: float64(l.Params()) * weightKeep * eff.Storage * s.cfg.BytesPerElement,
			inElems:     float64(l.InputElems()),
			outBytes:    float64(l.OutputElems()) * s.cfg.BytesPerElement,
			glb:         glb && l.Kind != models.FC,
			glbRows:     float64(l.Cin) * float64(l.InW) * float64(l.KH),
		}
	}
	return p
}

// Latencies implements accel.Plan.
func (p *plan) Latencies(lat []time.Duration, sp []float64) {
	for l := range p.layers {
		lat[l] = time.Duration(p.cycles(&p.layers[l], sp[l]) / p.cfg.ClockHz * float64(time.Second))
	}
}

// cycles applies one sample's activation sparsity to a layer's plan.
func (p *plan) cycles(lp *layerPlan, activationSparsity float64) float64 {
	density := 1 - activationSparsity
	if density < 0 {
		density = 0
	}
	effDensity := density
	if p.channelWise {
		// Surviving channels of a magnitude-pruned model carry denser
		// activations (see sparsity.LayerMask.ValidMACFraction).
		const importanceBias = 0.75
		effDensity = 1 - (1-density)*importanceBias
	}

	glb := p.glbOverflowFactor(lp, density)
	effMACs := lp.macsKeep * effDensity
	computeCycles := effMACs / lp.throughput * glb

	// Input activations are stored compressed (zero-skipping formats) and
	// re-streamed once per split mapping pass; outputs are written
	// uncompressed before the next layer's encoder.
	inBytes := lp.inElems * density * p.cfg.BytesPerElement * glb
	actBytes := inBytes + lp.outBytes
	memCycles := (lp.weightBytes + actBytes) / p.cfg.DRAMBytesPerCycle

	cycles := computeCycles
	if memCycles > cycles {
		cycles = memCycles
	}
	return cycles + p.cfg.LayerOverheadCycles
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
func (p *plan) glbOverflowFactor(lp *layerPlan, density float64) float64 {
	if !lp.glb {
		return 1
	}
	slice := lp.glbRows * density * p.cfg.BytesPerElement / float64(p.cfg.GLBBanks)
	capacity := p.cfg.GLBInputKB * 1024
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
