package eyeriss

import (
	"math"
	"testing"
	"time"

	"sparsedysta/internal/accel"
	"sparsedysta/internal/models"
	"sparsedysta/internal/rng"
	"sparsedysta/internal/sparsity"
)

// layerLatency is one layer's latency through the simulator's plan.
func layerLatency(s *Simulator, l *models.Layer, sp accel.LayerSparsity) time.Duration {
	return accel.ModelLatency(s, &models.Model{Family: models.CNN, Layers: []models.Layer{*l}}, sp)
}

// glbFactor is the plan's GLB overflow factor of one layer at an
// activation density.
func glbFactor(s *Simulator, l *models.Layer, density float64) float64 {
	p := s.Plan(&models.Model{Family: models.CNN, Layers: []models.Layer{*l}}, sparsity.Dense, 0).(*plan)
	return p.glbOverflowFactor(&p.layers[0], density)
}

// formula is the per-call latency model the plan replaced: every term
// evaluated from the layer for every sample. It is the oracle the plan
// must match bit for bit.
type formula struct{ cfg Config }

func (s formula) mapEfficiency(l *models.Layer) float64 {
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

func (s formula) glbOverflowFactor(l *models.Layer, density float64) float64 {
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
		factor = 4
	}
	return factor
}

func (s formula) LayerLatency(l *models.Layer, sp accel.LayerSparsity) time.Duration {
	return time.Duration(s.cycles(l, sp) / s.cfg.ClockHz * float64(time.Second))
}

func (s formula) cycles(l *models.Layer, sp accel.LayerSparsity) float64 {
	density := 1 - sp.ActivationSparsity
	if density < 0 {
		density = 0
	}
	weightKeep := 1 - sp.WeightRate
	if l.Kind == models.DWConv {
		weightKeep = 1
	}
	eff := sparsity.DefaultEfficiency(sp.Pattern)
	effDensity := density
	if sp.Pattern == sparsity.ChannelWise {
		const importanceBias = 0.75
		effDensity = 1 - (1-density)*importanceBias
	}

	glb := s.glbOverflowFactor(l, density)
	effMACs := float64(l.MACs()) * weightKeep * effDensity
	throughput := float64(s.cfg.PEs) * eff.Compute * s.mapEfficiency(l) * s.cfg.ImplEfficiency
	computeCycles := effMACs / throughput * glb

	weightBytes := float64(l.Params()) * weightKeep * eff.Storage * s.cfg.BytesPerElement
	inBytes := float64(l.InputElems()) * density * s.cfg.BytesPerElement * glb
	actBytes := inBytes + float64(l.OutputElems())*s.cfg.BytesPerElement
	memCycles := (weightBytes + actBytes) / s.cfg.DRAMBytesPerCycle

	cycles := computeCycles
	if memCycles > cycles {
		cycles = memCycles
	}
	cycles += s.cfg.LayerOverheadCycles
	return cycles
}

// sparsityGrid returns activation sparsities to sweep: the clamp edges
// -0.1, 0, 1 and 1.1, a regular grid and uniform draws, whose non-dyadic
// values expose any change in rounding order.
func sparsityGrid() []float64 {
	grid := []float64{-0.1, 0, 1, 1.1}
	for i := 1; i < 20; i++ {
		grid = append(grid, float64(i)/20)
	}
	r := rng.New(7)
	for i := 0; i < 24; i++ {
		grid = append(grid, r.Float64())
	}
	return grid
}

// TestPlanMatchesFormula: a model's plan gives every layer the latency
// the per-call formula gives it, bit for bit, over every CNN of the zoo
// (the models of workload.MultiCNN among them), every pattern, the
// weight rates of MultiCNN and more, and activation sparsities past both
// clamps; under the paper's GLB banks, the original 1.5 KB ones, banks
// small enough to hit the overflow cap, no GLB bound at all, and odd
// constants throughout.
func TestPlanMatchesFormula(t *testing.T) {
	tiny := DefaultConfig()
	tiny.GLBInputKB = 0.5
	noGLB := DefaultConfig()
	noGLB.GLBInputKB = 0
	// Non-unit, non-dyadic constants round wherever they multiply, so a
	// plan that moves one of them across another factor fails here even
	// where the default's unit byte width would hide it.
	odd := Config{PEs: 168, ClockHz: 199.7e6, ImplEfficiency: 0.213, DRAMBytesPerCycle: 3.3,
		BytesPerElement: 1.37, LayerOverheadCycles: 2001.5, DWMapEfficiency: 0.47, GLBInputKB: 1.9, GLBBanks: 12}
	configs := map[string]Config{
		"default": DefaultConfig(), "original-glb": OriginalGLBConfig(), "tiny-glb": tiny, "no-glb": noGLB, "odd": odd,
	}
	patterns := []sparsity.Pattern{sparsity.Dense, sparsity.RandomPointwise, sparsity.BlockNM, sparsity.ChannelWise}
	rates := []float64{0, 0.5, 0.7, 0.75, 0.8, 0.95}
	grid := sparsityGrid()
	for name, cfg := range configs {
		sim, oracle := New(cfg), formula{cfg}
		var overflowed, capped int
		for _, mname := range models.Names() {
			m, err := models.ByName(mname)
			if err != nil {
				t.Fatal(err)
			}
			if m.Family != models.CNN {
				continue
			}
			lat := make([]time.Duration, m.NumLayers())
			row := make([]float64, m.NumLayers())
			for _, p := range patterns {
				for _, rate := range rates {
					pl := sim.Plan(m, p, rate).(*plan)
					for k := range grid {
						// Each layer reads its own grid value, so a
						// plan that mixes up its layers fails too.
						for l := range row {
							row[l] = grid[(k+l)%len(grid)]
						}
						pl.Latencies(lat, row)
						for l := range m.Layers {
							layer := &m.Layers[l]
							sp := accel.LayerSparsity{Pattern: p, WeightRate: rate, ActivationSparsity: row[l]}
							// Durations truncate to whole ns, so the
							// cycles must match too: they show a rounding
							// the truncation would hide.
							got, want := pl.cycles(&pl.layers[l], row[l]), oracle.cycles(layer, sp)
							if math.Float64bits(got) != math.Float64bits(want) || lat[l] != oracle.LayerLatency(layer, sp) {
								t.Fatalf("%s: %s/%s %v@%v at sparsity %v: plan %v cycles (%d), formula %v cycles (%d)",
									name, m.Name, layer.Name, p, rate, row[l], got, lat[l], want, oracle.LayerLatency(layer, sp))
							}
							switch f := oracle.glbOverflowFactor(layer, max(1-row[l], 0)); {
							case f == 4:
								capped++
							case f > 1:
								overflowed++
							}
						}
					}
				}
			}
		}
		if (name == "original-glb" && overflowed == 0) || (name == "tiny-glb" && capped == 0) ||
			(name == "no-glb" && overflowed+capped != 0) {
			t.Errorf("%s: %d layer evaluations overflowed the GLB below the cap, %d at the cap", name, overflowed, capped)
		}
	}
}
