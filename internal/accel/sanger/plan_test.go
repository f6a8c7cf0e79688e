package sanger

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
	return accel.ModelLatency(s, &models.Model{Family: models.AttNN, Layers: []models.Layer{*l}}, sp)
}

// formula is the per-call latency model the plan replaced: every term
// evaluated from the layer for every sample. It is the oracle the plan
// must match bit for bit.
type formula struct{ cfg Config }

func (s formula) LayerLatency(l *models.Layer, sp accel.LayerSparsity) time.Duration {
	return time.Duration(s.cycles(l, sp) / s.cfg.ClockHz * float64(time.Second))
}

func (s formula) cycles(l *models.Layer, sp accel.LayerSparsity) float64 {
	as := sp.ActivationSparsity
	if as < 0 {
		as = 0
	}
	if as > 1 {
		as = 1
	}

	var computeCycles float64
	var weightBytes float64
	switch l.Kind {
	case models.Attention:
		seqKeep := 1 - s.cfg.TokenPruneSlope*as
		denseMACs := float64(l.MACs()-l.AttnMatrixMACs()) * seqKeep
		attnMACs := float64(l.AttnMatrixMACs()) * seqKeep * seqKeep * (1 - as)

		denseCycles := denseMACs / float64(s.cfg.DensePEs)
		sparseCycles := attnMACs / (float64(s.cfg.SparsePEs) * s.cfg.LoadBalanceEff)
		computeCycles = denseCycles + sparseCycles
		weightBytes = float64(l.Params()) * s.cfg.BytesPerElement
	default:
		computeCycles = float64(l.MACs()) / float64(s.cfg.DensePEs)
		weightBytes = float64(l.Params()) * s.cfg.BytesPerElement
	}

	memCycles := weightBytes / s.cfg.DRAMBytesPerCycle
	cycles := computeCycles
	if memCycles > cycles {
		cycles = memCycles
	}
	cycles += s.cfg.BlockOverheadCycles
	return cycles
}

// TestPlanMatchesFormula: a model's plan gives every layer the latency
// the per-call formula gives it, bit for bit, over every AttNN of the zoo
// (the models of workload.MultiAttNN among them) with a classifier head
// on the dense fallback, every pattern and several weight rates (which
// must not matter), and attention sparsities past both clamps; under the
// default configuration, one slow enough to be memory bound, and one of
// odd constants throughout.
func TestPlanMatchesFormula(t *testing.T) {
	slowDRAM := DefaultConfig()
	slowDRAM.DRAMBytesPerCycle = 0.5
	// Non-unit, non-dyadic constants round wherever they multiply, so a
	// plan that moves one of them across another factor fails here even
	// where the default's unit byte width would hide it.
	odd := Config{DensePEs: 1000, SparsePEs: 60, ClockHz: 209.3e6, LoadBalanceEff: 0.71, TokenPruneSlope: 0.79,
		DRAMBytesPerCycle: 30.7, BytesPerElement: 1.37, BlockOverheadCycles: 5000.5}
	grid := []float64{-0.1, 0, 1, 1.1}
	for i := 1; i < 20; i++ {
		grid = append(grid, float64(i)/20)
	}
	r := rng.New(7)
	for i := 0; i < 24; i++ {
		grid = append(grid, 0.5+0.5*r.Float64())
	}
	patterns := []sparsity.Pattern{sparsity.Dense, sparsity.RandomPointwise, sparsity.BlockNM, sparsity.ChannelWise}
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "slow-dram": slowDRAM, "odd": odd} {
		sim, oracle := New(cfg), formula{cfg}
		var memBound int
		for _, mname := range models.Names() {
			zoo, err := models.ByName(mname)
			if err != nil {
				t.Fatal(err)
			}
			if zoo.Family != models.AttNN {
				continue
			}
			m := *zoo
			m.Layers = append(m.Layers[:len(m.Layers):len(m.Layers)], models.Layer{Name: "head", Kind: models.FC, Cin: 768, Cout: 2})
			lat := make([]time.Duration, m.NumLayers())
			row := make([]float64, m.NumLayers())
			for _, p := range patterns {
				for _, rate := range []float64{0, 0.8} {
					pl := sim.Plan(&m, p, rate).(*plan)
					for k := range grid {
						// Each layer reads its own grid value, so a plan
						// that mixes up its layers fails too.
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
							if float64(layer.Params())*cfg.BytesPerElement/cfg.DRAMBytesPerCycle > float64(layer.MACs())/float64(cfg.DensePEs) {
								memBound++
							}
						}
					}
				}
			}
		}
		if name == "slow-dram" && memBound == 0 {
			t.Errorf("slow-dram: no layer evaluation was memory bound")
		}
	}
}
