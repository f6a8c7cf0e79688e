package exp

import (
	"fmt"
	"time"

	"sparsedysta/internal/accel"
	"sparsedysta/internal/accel/eyeriss"
	"sparsedysta/internal/core"
	"sparsedysta/internal/hwsched"
	"sparsedysta/internal/models"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/workload"
)

// This file holds the ablation studies DESIGN.md §5 calls out: sweeps of
// Dysta's configuration knobs that the paper fixes (eta, beta, predictor
// strategy, penalty, demotion, preemption overhead, FIFO depth). They are
// registered alongside the paper experiments under "ablation-*" ids.

// runDystaVariants evaluates one Dysta configuration per row on a single
// scenario operating point.
// dystaVariant labels one Dysta configuration under test.
type dystaVariant struct {
	label string
	cfg   core.Config
}

func runDystaVariants(sc workload.Scenario, rate float64, opts Options,
	rows []dystaVariant) (*Table, error) {
	p, err := NewPipeline(sc, opts, 7)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		Columns: []string{"variant", "ANTT", "viol%", "preemptions"},
	}
	// All variants go into one grid point so the (variant, seed) cells
	// fan out over the parallel runner together.
	specs := make([]SchedSpec, len(rows))
	for i, row := range rows {
		cfg := row.cfg
		specs[i] = SchedSpec{Name: row.label, New: func(p *Pipeline) sched.Scheduler {
			return core.New(cfg, p.LUT)
		}}
	}
	rs, err := p.RunPoint(specs, rate, 10, opts)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		r := rs[row.label]
		tbl.Rows = append(tbl.Rows, []string{
			row.label,
			fmt.Sprintf("%.2f", r.ANTT),
			fmt.Sprintf("%.1f", 100*r.ViolationRate),
			fmt.Sprintf("%d", r.Preemptions),
		})
	}
	return tbl, nil
}

// AblationEta sweeps the dynamic slack weight eta on both workloads.
func AblationEta(opts Options) ([]Artifact, error) {
	var arts []Artifact
	for _, setup := range []struct {
		sc   workload.Scenario
		rate float64
	}{
		{workload.MultiAttNN(), 30},
		{workload.MultiCNN(), 3},
	} {
		var rows []dystaVariant
		for _, eta := range []float64{0, 0.01, 0.05, 0.1, 0.3} {
			cfg := core.DefaultConfig()
			cfg.Eta = eta
			rows = append(rows, dystaVariant{fmt.Sprintf("eta=%.2f", eta), cfg})
		}
		tbl, err := runDystaVariants(setup.sc, setup.rate, opts, rows)
		if err != nil {
			return nil, err
		}
		tbl.ID = "ablation-eta"
		tbl.Title = fmt.Sprintf("eta sweep (ANTT vs violation balance), %s", setup.sc.Name)
		tbl.Notes = []string{"eta=0 is sparsity-refined SJF; larger eta weighs deadline slack"}
		arts = append(arts, tbl)
	}
	return arts, nil
}

// AblationStrategy compares the predictor strategies and coefficient
// spaces inside the full scheduling loop (Table 4 measures them offline).
func AblationStrategy(opts Options) ([]Artifact, error) {
	var rows []dystaVariant
	for _, s := range []core.Strategy{core.LastOne, core.LastN, core.AverageAll} {
		cfg := core.DefaultConfig()
		cfg.Strategy = s
		rows = append(rows, dystaVariant{"strategy=" + s.String(), cfg})
	}
	dr := core.DefaultConfig()
	dr.Mode = core.DensityRatio
	rows = append(rows, dystaVariant{"mode=density-ratio", dr})

	tbl, err := runDystaVariants(workload.MultiAttNN(), 30, opts, rows)
	if err != nil {
		return nil, err
	}
	tbl.ID = "ablation-strategy"
	tbl.Title = "predictor strategy / coefficient space inside the scheduler, multi-attnn"
	return []Artifact{tbl}, nil
}

// AblationPenalty sweeps the preemption-penalty weight.
func AblationPenalty(opts Options) ([]Artifact, error) {
	var rows []dystaVariant
	for _, w := range []float64{0, 1, 10, 100} {
		cfg := core.DefaultConfig()
		cfg.PenaltyWeight = w
		rows = append(rows, dystaVariant{fmt.Sprintf("penalty=%g", w), cfg})
	}
	tbl, err := runDystaVariants(workload.MultiAttNN(), 30, opts, rows)
	if err != nil {
		return nil, err
	}
	tbl.ID = "ablation-penalty"
	tbl.Title = "preemption penalty weight (Alg. 2 line 10), multi-attnn"
	tbl.Notes = []string{"larger weights suppress switching away from the recently executed request"}
	return []Artifact{tbl}, nil
}

// AblationDemotion sweeps the hopeless-task demotion constant (the
// documented refinement of Alg. 2; DESIGN.md §6).
func AblationDemotion(opts Options) ([]Artifact, error) {
	var rows []dystaVariant
	for _, d := range []float64{0, 100, 1000, 10000} {
		cfg := core.DefaultConfig()
		cfg.DemotionMS = d
		rows = append(rows, dystaVariant{fmt.Sprintf("demotion=%gms", d), cfg})
	}
	tbl, err := runDystaVariants(workload.MultiAttNN(), 30, opts, rows)
	if err != nil {
		return nil, err
	}
	tbl.ID = "ablation-demotion"
	tbl.Title = "hopeless-request demotion, multi-attnn"
	tbl.Notes = []string{"demotion=0 is the literal Alg. 2 with clamped slack"}
	return []Artifact{tbl}, nil
}

// AblationOverhead sweeps the per-preemption overhead charged by the
// engine, checking that Dysta's advantage survives non-zero switching
// costs.
func AblationOverhead(opts Options) ([]Artifact, error) {
	sc := workload.MultiAttNN()
	p, err := NewPipeline(sc, opts, 7)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:      "ablation-overhead",
		Title:   "preemption overhead sensitivity, multi-attnn at 30 req/s",
		Columns: []string{"overhead", "SJF ANTT", "SJF viol%", "Dysta ANTT", "Dysta viol%"},
	}
	for _, ov := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		var sjfR, dystaR []sched.Result
		for s := 0; s < opts.Seeds; s++ {
			reqs, err := workload.Generate(sc, p.Eval, workload.GenConfig{
				Requests: opts.Requests, RatePerSec: 30, SLOMultiplier: 10, Seed: cellSeed(s)})
			if err != nil {
				return nil, err
			}
			a, err := sched.Run(sched.NewSJF(p.Est), reqs, sched.Options{PreemptionOverhead: ov})
			if err != nil {
				return nil, err
			}
			b, err := sched.Run(core.NewDefault(p.LUT), reqs, sched.Options{PreemptionOverhead: ov})
			if err != nil {
				return nil, err
			}
			sjfR, dystaR = append(sjfR, a), append(dystaR, b)
		}
		sjf, err := sched.AverageResults(sjfR)
		if err != nil {
			return nil, err
		}
		dysta, err := sched.AverageResults(dystaR)
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			ov.String(),
			fmt.Sprintf("%.2f", sjf.ANTT), fmt.Sprintf("%.1f", 100*sjf.ViolationRate),
			fmt.Sprintf("%.2f", dysta.ANTT), fmt.Sprintf("%.1f", 100*dysta.ViolationRate),
		})
	}
	return []Artifact{tbl}, nil
}

// AblationFIFO sweeps the hardware FIFO depth, reporting back-pressure
// (saturated arrivals) and the resource cost of deeper queues. The model
// schedules every arrival whatever the depth, so one run serves every
// row: each depth's count is read from the occupancy its arrivals found
// (hwsched.Engine.Saturated).
func AblationFIFO(opts Options) ([]Artifact, error) {
	sc := workload.MultiAttNN()
	p, err := NewPipeline(sc, opts, 7)
	if err != nil {
		return nil, err
	}
	reqs, err := workload.Generate(sc, p.Eval, workload.GenConfig{
		Requests: opts.Requests, RatePerSec: 40, SLOMultiplier: 10, Seed: cellSeed(0)})
	if err != nil {
		return nil, err
	}
	eng, err := hwsched.NewEngine(core.DefaultConfig(), p.LUT, hwsched.FP16)
	if err != nil {
		return nil, err
	}
	r, err := sched.Run(eng, reqs, sched.Options{})
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:      "ablation-fifo",
		Title:   "hardware FIFO depth under heavy load (40 req/s), multi-attnn",
		Columns: []string{"depth", "saturated arrivals", "ANTT", "viol%", "RAM"},
	}
	for _, depth := range []int{8, 16, 64, 512} {
		res := hwsched.Estimate(hwsched.OptFP16(depth))
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", depth),
			fmt.Sprintf("%d", eng.Saturated(depth)),
			fmt.Sprintf("%.2f", r.ANTT),
			fmt.Sprintf("%.1f", 100*r.ViolationRate),
			fmt.Sprintf("%.2f KB", float64(res.RAMBytes)/1024),
		})
	}
	tbl.Notes = []string{"saturated arrivals would back-pressure the host; the model still schedules them so metrics stay comparable"}
	return []Artifact{tbl}, nil
}

// AblationBeta sweeps the static slack weight beta on a mixed-criticality
// workload. With the benchmark's uniform SLO multiplier beta cannot
// reorder requests (every model's latency and SLO move together); the
// paper's deployment mixes (Table 3) pair latency-critical tasks with
// best-effort ones, which this scenario models with per-entry SLO classes.
func AblationBeta(opts Options) ([]Artifact, error) {
	sc := workload.MultiAttNN()
	// BERT question answering is interactive (tight SLO); translation is
	// background (loose SLO).
	for i := range sc.Entries {
		if sc.Entries[i].Model.Name == "bert" {
			sc.Entries[i].SLOFactor = 0.4
		} else {
			sc.Entries[i].SLOFactor = 2.0
		}
	}
	var rows []dystaVariant
	for _, beta := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		cfg := core.DefaultConfig().WithoutSparse()
		cfg.Beta = beta
		rows = append(rows, dystaVariant{fmt.Sprintf("beta=%.2f", beta), cfg})
	}
	tbl, err := runDystaVariants(sc, 30, opts, rows)
	if err != nil {
		return nil, err
	}
	tbl.ID = "ablation-beta"
	tbl.Title = "beta sweep (static level only) on a mixed-criticality multi-attnn workload"
	tbl.Notes = []string{
		"beta=0 is per-model SJF; larger beta prioritizes the tight-SLO interactive requests",
	}
	return []Artifact{tbl}, nil
}

// AblationGLB reproduces the rationale for the paper's §6.1 hardware
// modification: enlarging Eyeriss-V2's input-activation GLB banks from
// 1.5 KB to 2.5 KB reduces refill stalls on the large benchmark CNNs.
func AblationGLB(opts Options) ([]Artifact, error) {
	big := eyeriss.New(eyeriss.DefaultConfig())
	small := eyeriss.New(eyeriss.OriginalGLBConfig())
	tbl := &Table{
		ID:    "ablation-glb",
		Title: "Eyeriss-V2 input GLB size: paper's 2.5 KB banks vs original 1.5 KB",
		Columns: []string{"model",
			"dense acts, 1.5 KB", "dense acts, 2.5 KB", "slowdown",
			"sparse acts, 1.5 KB", "sparse acts, 2.5 KB"},
	}
	denseAct := accel.LayerSparsity{Pattern: sparsity.Dense}
	sparseAct := accel.LayerSparsity{
		Pattern: sparsity.RandomPointwise, WeightRate: 0.8, ActivationSparsity: 0.45}
	for _, m := range models.BenchmarkCNNs() {
		dSmall := accel.ModelLatency(small, m, denseAct)
		dBig := accel.ModelLatency(big, m, denseAct)
		sSmall := accel.ModelLatency(small, m, sparseAct)
		sBig := accel.ModelLatency(big, m, sparseAct)
		tbl.Rows = append(tbl.Rows, []string{
			m.Name,
			dSmall.Round(time.Millisecond).String(),
			dBig.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(dSmall)/float64(dBig)),
			sSmall.Round(time.Millisecond).String(),
			sBig.Round(time.Millisecond).String(),
		})
	}
	tbl.Notes = []string{
		"dense activations overflow the original banks on wide layers (split-mapping slowdown)",
		"the benchmark's compressed activations fit either size - the enlarged GLB removes the constraint",
	}
	return []Artifact{tbl}, nil
}
