// Package sanger implements the analytical Sanger performance model used
// as the sparse attention accelerator of the benchmark (paper §3.3.2).
//
// Sanger (Lu et al., MICRO 2021) accelerates dynamically pruned attention:
// a lightweight predictor thresholds the attention matrix, and a
// reconfigurable systolic array executes the surviving entries with
// load-balanced pack-and-split scheduling. The benchmark drives it with
// threshold-pruned BERT, GPT-2 and BART (paper §3.2), whose per-sample
// attention sparsity is the dynamic signal Dysta monitors.
//
// The model splits one transformer block into:
//
//   - a dense part (QKV/output projections + FFN) on the dense systolic
//     datapath, scaled by cascade token pruning — highly sparse samples
//     drop uninformative tokens, shrinking the effective sequence length
//     (SpAtten-style; this is what makes "simple prompts" fast in the
//     paper's Fig. 1);
//   - a sparse part (the score and context products) on the load-balanced
//     sparse datapath, scaled by the surviving attention density.
//
// Latency is the roofline of compute and weight-streaming memory traffic
// plus a per-block overhead.
package sanger

import (
	"time"

	"sparsedysta/internal/accel"
	"sparsedysta/internal/models"
	"sparsedysta/internal/sparsity"
)

// Config holds the hardware parameters of the Sanger model. Start from
// DefaultConfig.
type Config struct {
	// DensePEs is the MAC count of the dense systolic datapath.
	DensePEs int
	// SparsePEs is the MAC count of the sparse (attention) datapath.
	SparsePEs int
	// ClockHz is the accelerator clock.
	ClockHz float64
	// LoadBalanceEff is the fraction of sparse-datapath peak realized by
	// Sanger's pack-and-split load balancing.
	LoadBalanceEff float64
	// TokenPruneSlope maps attention sparsity to the fraction of tokens
	// cascade-pruned from the dense datapath: effSeq = S*(1 - slope*as).
	TokenPruneSlope float64
	// DRAMBytesPerCycle is the weight-streaming bandwidth in bytes/cycle.
	DRAMBytesPerCycle float64
	// BytesPerElement is the datatype width (8-bit quantized).
	BytesPerElement float64
	// BlockOverheadCycles is the fixed cost per transformer block.
	BlockOverheadCycles float64
}

// DefaultConfig returns the Sanger configuration used by the reproduction:
// a 32x32 dense array at 250 MHz with a 64-lane sparse datapath. The clock
// and token-prune slope are calibrated (DESIGN.md §2) so that (i) per-block
// latency varies ~2.5x across the benchmark's attention-sparsity range,
// normalizing to the 0.6-1.8 spread of paper Fig. 2, and (ii) the
// three-model benchmark mix averages ~25 ms, making the paper's 30 req/s
// arrival rate a ~0.75-utilization operating point as in its evaluation.
func DefaultConfig() Config {
	return Config{
		DensePEs:            1024,
		SparsePEs:           64,
		ClockHz:             210e6,
		LoadBalanceEff:      0.70,
		TokenPruneSlope:     0.8,
		DRAMBytesPerCycle:   32,
		BytesPerElement:     1,
		BlockOverheadCycles: 5000,
	}
}

// Simulator is the Sanger analytical latency model. It is safe for
// concurrent use.
type Simulator struct {
	cfg Config
}

// New returns a Simulator with the given configuration.
func New(cfg Config) *Simulator { return &Simulator{cfg: cfg} }

// NewDefault returns a Simulator with DefaultConfig.
func NewDefault() *Simulator { return New(DefaultConfig()) }

// Name implements accel.Accelerator.
func (s *Simulator) Name() string { return "sanger" }

// Family implements accel.Accelerator.
func (s *Simulator) Family() models.Family { return models.AttNN }

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// plan is one model's Sanger latency plan: the roofline terms that do not
// depend on the sample, resolved once per layer.
type plan struct {
	cfg Config
	// sparseRate is the sparse datapath's realized MACs per cycle.
	sparseRate float64
	layers     []layerPlan
}

// layerPlan holds one layer's static terms. Each is an exact conversion
// of a count or a whole left-to-right prefix of the expression it stands
// in, so the per-sample step rounds every latency exactly as evaluating
// the whole expression for each sample does.
type layerPlan struct {
	// attention marks an attention block; any other layer runs on the
	// dense datapath in fixedCycles.
	attention   bool
	fixedCycles float64
	// denseMACs and attnMACs are the block's projection and FFN MACs and
	// its attention-matrix MACs before token pruning.
	denseMACs, attnMACs float64
	// memCycles is the weight-streaming time.
	memCycles float64
}

// Plan implements accel.Accelerator. For Attention layers the sample's
// sparsity is the pruned fraction of the attention matrix; the weight
// pattern and rate are ignored (the benchmark's AttNN sparsification is
// dynamic only, paper §3.2). Non-attention layers fall back to the dense
// datapath.
func (s *Simulator) Plan(m *models.Model, _ sparsity.Pattern, _ float64) accel.Plan {
	p := &plan{
		cfg:        s.cfg,
		sparseRate: float64(s.cfg.SparsePEs) * s.cfg.LoadBalanceEff,
		layers:     make([]layerPlan, len(m.Layers)),
	}
	for i := range m.Layers {
		l := &m.Layers[i]
		lp := &p.layers[i]
		lp.memCycles = float64(l.Params()) * s.cfg.BytesPerElement / s.cfg.DRAMBytesPerCycle
		if l.Kind != models.Attention {
			lp.fixedCycles = p.roofline(float64(l.MACs())/float64(s.cfg.DensePEs), lp.memCycles)
			continue
		}
		lp.attention = true
		lp.denseMACs = float64(l.MACs() - l.AttnMatrixMACs())
		lp.attnMACs = float64(l.AttnMatrixMACs())
	}
	return p
}

// Latencies implements accel.Plan.
func (p *plan) Latencies(lat []time.Duration, sp []float64) {
	for l := range p.layers {
		lat[l] = time.Duration(p.cycles(&p.layers[l], sp[l]) / p.cfg.ClockHz * float64(time.Second))
	}
}

// cycles applies one sample's attention sparsity to a layer's plan.
func (p *plan) cycles(lp *layerPlan, as float64) float64 {
	if !lp.attention {
		return lp.fixedCycles
	}
	if as < 0 {
		as = 0
	}
	if as > 1 {
		as = 1
	}
	// Cascade token pruning shortens the sequence seen by the dense
	// datapath; the attention product additionally keeps only the
	// surviving density of entries.
	seqKeep := 1 - p.cfg.TokenPruneSlope*as
	denseMACs := lp.denseMACs * seqKeep
	attnMACs := lp.attnMACs * seqKeep * seqKeep * (1 - as)

	denseCycles := denseMACs / float64(p.cfg.DensePEs)
	sparseCycles := attnMACs / p.sparseRate
	return p.roofline(denseCycles+sparseCycles, lp.memCycles)
}

// roofline is the larger of the compute and memory cycles plus the
// per-block overhead.
func (p *plan) roofline(computeCycles, memCycles float64) float64 {
	cycles := computeCycles
	if memCycles > cycles {
		cycles = memCycles
	}
	return cycles + p.cfg.BlockOverheadCycles
}

var _ accel.Accelerator = (*Simulator)(nil)
