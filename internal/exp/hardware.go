package exp

import (
	"fmt"

	"sparsedysta/internal/accel/sanger"
	"sparsedysta/internal/core"
	"sparsedysta/internal/hwsched"
	"sparsedysta/internal/models"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
)

// Table4 reproduces the sparse-latency-predictor accuracy comparison of
// paper Table 4: RMSE of the average-all, last-N and last-one coefficient
// strategies on BERT and GPT-2 traces. The paper's finding — average-all
// and last-one comparable, both beating last-N slightly, motivating the
// cheap last-one hardware — is checked by the shape of the rows.
func Table4(opts Options) ([]Artifact, error) {
	tbl := &Table{
		ID:    "table4",
		Title: "RMSE of the sparse latency predictor (seconds; normalized by mean isolated latency in parens)",
		Columns: []string{"model",
			"average-all", "last-n (N=3)", "last-one", "static (gamma=1)", "literal Alg.3"},
		Notes: []string{
			"paper reports average-all and last-one comparable; static shows the value of monitoring at all",
			"literal Alg.3 scales average latency proportionally by gamma instead of using the profiled slopes (DESIGN.md §6)",
		},
	}
	for _, name := range []string{"bert", "gpt2"} {
		m, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		prof, err := trace.Build(sanger.NewDefault(), trace.BuildConfig{
			Model: m, Samples: opts.ProfileSamples, Seed: 100})
		if err != nil {
			return nil, err
		}
		st, err := trace.Summarize(trace.NewKey(m.Name, sparsity.Dense), prof)
		if err != nil {
			return nil, err
		}
		eval, err := trace.Build(sanger.NewDefault(), trace.BuildConfig{
			Model: m, Samples: opts.DatasetSamples / 4, Seed: 200})
		if err != nil {
			return nil, err
		}

		row := []string{name}
		for _, strat := range []core.Strategy{core.AverageAll, core.LastN, core.LastOne} {
			cfg := core.DefaultConfig()
			cfg.Strategy = strat
			pe := core.EvaluatePredictor(cfg, st, eval)
			row = append(row, fmt.Sprintf("%.6f (%.3f)", pe.RMSE, pe.NormalizedRMSE))
		}
		static := core.DefaultConfig()
		static.GammaClamp = 1.0001 // pins gamma to ~1
		pe := core.EvaluatePredictor(static, st, eval)
		row = append(row, fmt.Sprintf("%.6f (%.3f)", pe.RMSE, pe.NormalizedRMSE))

		literal := core.DefaultConfig()
		literal.LiteralAlg3 = true
		pe = core.EvaluatePredictor(literal, st, eval)
		row = append(row, fmt.Sprintf("%.6f (%.3f)", pe.RMSE, pe.NormalizedRMSE))
		tbl.Rows = append(tbl.Rows, row)
	}
	return []Artifact{tbl}, nil
}

// Fig16 reproduces the hardware-optimization comparison of paper Fig. 16:
// normalized LUT/FF/DSP usage of the Non_Opt_FP32, Opt_FP32 and Opt_FP16
// scheduler designs at FIFO depths 512 and 64.
func Fig16(Options) ([]Artifact, error) {
	var arts []Artifact
	for _, depth := range []int{512, 64} {
		designs := []hwsched.Design{
			hwsched.NonOptFP32(depth),
			hwsched.OptFP32(depth),
			hwsched.OptFP16(depth),
		}
		base := hwsched.Estimate(designs[0])
		tbl := &Table{
			ID:      "fig16",
			Title:   fmt.Sprintf("normalized resource usage, request depth %d", depth),
			Columns: []string{"design", "LUT", "FF", "DSP", "LUT(abs)", "FF(abs)", "DSP(abs)", "RAM(abs)"},
		}
		for _, d := range designs {
			r := hwsched.Estimate(d)
			tbl.Rows = append(tbl.Rows, []string{
				d.String(),
				fmt.Sprintf("%.2f", float64(r.LUTs)/float64(base.LUTs)),
				fmt.Sprintf("%.2f", float64(r.FFs)/float64(base.FFs)),
				fmt.Sprintf("%.2f", float64(r.DSPs)/float64(base.DSPs)),
				fmt.Sprintf("%d", r.LUTs),
				fmt.Sprintf("%d", r.FFs),
				fmt.Sprintf("%d", r.DSPs),
				fmt.Sprintf("%.2f KB", float64(r.RAMBytes)/1024),
			})
		}
		arts = append(arts, tbl)
	}
	return arts, nil
}

// Table6 reproduces the resource-overhead summary of paper Table 6: the
// optimized FP16 scheduler at FIFO depth 64 next to Eyeriss-V2.
func Table6(Options) ([]Artifact, error) {
	schedRes := hwsched.Estimate(hwsched.OptFP16(64))
	e := hwsched.EyerissV2Resources
	lutFrac, dspFrac, ramFrac := hwsched.Overhead(schedRes)
	tbl := &Table{
		ID:      "table6",
		Title:   "Resource overhead of the Dysta scheduler (paper: 553 LUTs / 3 DSPs / 0.5 KB; overhead 0.55% / 1.5% / 0.35%)",
		Columns: []string{"module", "LUTs", "DSPs", "on-chip RAM"},
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"Eyeriss-V2", fmt.Sprintf("%d", e.LUTs), fmt.Sprintf("%d", e.DSPs),
			fmt.Sprintf("%.1f KB", float64(e.RAMBytes)/1024)},
		[]string{"Scheduler", fmt.Sprintf("%d", schedRes.LUTs), fmt.Sprintf("%d", schedRes.DSPs),
			fmt.Sprintf("%.2f KB", float64(schedRes.RAMBytes)/1024)},
		[]string{"Dysta-Eyeriss-V2", fmt.Sprintf("%d", e.LUTs+schedRes.LUTs),
			fmt.Sprintf("%d", e.DSPs+schedRes.DSPs),
			fmt.Sprintf("%.2f KB", float64(e.RAMBytes+schedRes.RAMBytes)/1024)},
		[]string{"Total overhead", fmt.Sprintf("%.2f%%", 100*lutFrac),
			fmt.Sprintf("%.2f%%", 100*dspFrac), fmt.Sprintf("%.2f%%", 100*ramFrac)},
	)
	return []Artifact{tbl}, nil
}
