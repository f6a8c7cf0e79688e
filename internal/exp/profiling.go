package exp

import (
	"fmt"
	"strings"

	"sparsedysta/internal/accel/sanger"
	"sparsedysta/internal/dataset"
	"sparsedysta/internal/models"
	"sparsedysta/internal/rng"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/stats"
	"sparsedysta/internal/trace"
)

// Fig2 reproduces the dynamic-sparsity profiling of paper Fig. 2: the
// distribution of normalized latency of BERT's last and second-last
// layers over a SQuAD-like stream on Sanger. The paper reports a 0.6-1.8
// spread; the histograms and the min/max summary show the reproduction's
// spread.
func Fig2(opts Options) ([]Artifact, error) {
	m := models.BERTBase()
	traces, err := trace.Build(sanger.NewDefault(), trace.BuildConfig{
		Model: m, Samples: opts.DatasetSamples, Seed: 2,
	})
	if err != nil {
		return nil, err
	}
	var arts []Artifact
	summary := &Table{
		ID:      "fig2",
		Title:   "Normalized latency spread of BERT layers under dynamic attention sparsity (paper: 0.6-1.8)",
		Columns: []string{"layer", "min", "p1", "mean", "p99", "max"},
	}
	for _, layer := range []int{m.NumLayers() - 2, m.NumLayers() - 1} {
		lats := make([]float64, len(traces))
		for i := range traces {
			lats[i] = traces[i].LayerLatency[layer].Seconds()
		}
		mean := stats.Mean(lats)
		norm := make([]float64, len(lats))
		for i, v := range lats {
			norm[i] = v / mean
		}
		h := stats.NewHistogram(0.5, 2.0, 30)
		h.AddAll(norm)
		name := "second-last layer"
		if layer == m.NumLayers()-1 {
			name = "last layer"
		}
		arts = append(arts, &Text{
			ID:    "fig2",
			Title: fmt.Sprintf("normalized latency distribution, BERT %s", name),
			Body:  h.Render(48),
		})
		summary.Rows = append(summary.Rows, []string{
			name,
			fmt.Sprintf("%.2f", stats.Min(norm)),
			fmt.Sprintf("%.2f", stats.Percentile(norm, 1)),
			"1.00",
			fmt.Sprintf("%.2f", stats.Percentile(norm, 99)),
			fmt.Sprintf("%.2f", stats.Max(norm)),
		})
	}
	arts = append(arts, summary)
	return arts, nil
}

// Fig3 reproduces the activation-sparsity profiling of paper Fig. 3: the
// per-layer sparsity of the last six layers of ResNet-50 and VGG-16 over
// an ImageNet + low-light mixture.
func Fig3(opts Options) ([]Artifact, error) {
	var arts []Artifact
	for _, name := range []string{"resnet50", "vgg16"} {
		m, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		stream := dataset.MustStream(m, dataset.VisionPreset(m, true), 3)
		nl := m.NumLayers()
		series := make([][]float64, 6)
		for i := range series {
			series[i] = make([]float64, opts.DatasetSamples)
		}
		for s := 0; s < opts.DatasetSamples; s++ {
			sp := stream.Next().Sparsity
			for j := 0; j < 6; j++ {
				series[j][s] = sp[nl-6+j]
			}
		}
		tbl := &Table{
			ID:      "fig3",
			Title:   fmt.Sprintf("activation sparsity of the last six layers of %s (paper: most layers 10-45%%)", m.Name),
			Columns: []string{"layer", "min", "mean", "max"},
		}
		for j, ss := range series {
			tbl.Rows = append(tbl.Rows, []string{
				m.Layers[nl-6+j].Name,
				fmt.Sprintf("%.3f", stats.Min(ss)),
				fmt.Sprintf("%.3f", stats.Mean(ss)),
				fmt.Sprintf("%.3f", stats.Max(ss)),
			})
		}
		arts = append(arts, tbl)
	}
	return arts, nil
}

// Table2 reproduces the paper's Table 2: the relative range of network
// sparsity per model, with the paper's reported values alongside.
func Table2(opts Options) ([]Artifact, error) {
	paper := []struct {
		model string
		value float64
	}{
		{"googlenet", 0.283},
		{"vgg16", 0.218},
		{"inceptionv3", 0.230},
		{"resnet50", 0.151},
	}
	tbl := &Table{
		ID:      "table2",
		Title:   "Relative range of network sparsity",
		Columns: []string{"model", "measured", "paper"},
	}
	for _, p := range paper {
		m, err := models.ByName(p.model)
		if err != nil {
			return nil, err
		}
		stream := dataset.MustStream(m, dataset.VisionPreset(m, true), 42)
		net := make([]float64, opts.DatasetSamples)
		for i := range net {
			net[i] = stream.Next().NetworkSparsity()
		}
		tbl.Rows = append(tbl.Rows, []string{
			p.model,
			fmt.Sprintf("%.1f%%", 100*stats.RelativeRange(net)),
			fmt.Sprintf("%.1f%%", 100*p.value),
		})
	}
	return []Artifact{tbl}, nil
}

// Fig4 reproduces the valid-MAC profiling of paper Fig. 4: the
// distribution of normalized effective MAC operations under random
// point-wise vs channel-wise weight sparsity at equal rates (ResNet-50 at
// 95%, MobileNet at 80%), over identical input streams.
func Fig4(opts Options) ([]Artifact, error) {
	cases := []struct {
		model string
		rate  float64
	}{
		{"resnet50", 0.95},
		{"mobilenet", 0.80},
	}
	var arts []Artifact
	for _, c := range cases {
		m, err := models.ByName(c.model)
		if err != nil {
			return nil, err
		}
		r := rng.New(4)
		// Generate one mask per layer and pattern; identical inputs
		// evaluate both patterns.
		patterns := []sparsity.Pattern{sparsity.RandomPointwise, sparsity.ChannelWise}
		masks := map[sparsity.Pattern][]*sparsity.LayerMask{}
		for _, p := range patterns {
			for _, l := range m.Layers {
				if l.Kind != models.Conv {
					masks[p] = append(masks[p], nil)
					continue
				}
				mask, err := sparsity.Generate(r, p, sparsity.MaskConfig{
					Cin: l.Cin, Cout: l.Cout, KH: l.KH, KW: l.KW, Rate: c.rate})
				if err != nil {
					return nil, err
				}
				masks[p] = append(masks[p], mask)
			}
		}

		stream := dataset.MustStream(m, dataset.VisionPreset(m, true), 5)
		n := opts.DatasetSamples / 2
		if n < 100 {
			n = 100
		}
		macs := map[sparsity.Pattern][]float64{}
		chRNG := rng.New(6)
		valid := make([]float64, len(patterns))
		for s := 0; s < n; s++ {
			sample := stream.Next()
			// One per-channel density profile per layer, drawn once and
			// scored under both patterns (identical inputs).
			clear(valid)
			for li, l := range m.Layers {
				if l.Kind != models.Conv {
					continue
				}
				density := dataset.ChannelDensities(chRNG.Split(), l.Cin, 1-sample.Sparsity[li], 0.08)
				for pi, p := range patterns {
					valid[pi] += masks[p][li].ValidMACFraction(density) * float64(l.MACs())
				}
			}
			for pi, p := range patterns {
				macs[p] = append(macs[p], valid[pi])
			}
		}

		tbl := &Table{
			ID:      "fig4",
			Title:   fmt.Sprintf("valid MACs under equal %.0f%% sparsity, %s (paper: up to 40%% pattern gap)", 100*c.rate, c.model),
			Columns: []string{"pattern", "mean valid MACs", "normalized mean", "spread (rel range)"},
		}
		ref := stats.Mean(macs[sparsity.RandomPointwise])
		for _, p := range patterns {
			vals := macs[p]
			tbl.Rows = append(tbl.Rows, []string{
				p.String(),
				fmt.Sprintf("%.3g", stats.Mean(vals)),
				fmt.Sprintf("%.3f", stats.Mean(vals)/ref),
				fmt.Sprintf("%.3f", stats.RelativeRange(vals)),
			})
		}
		arts = append(arts, tbl)
	}
	return arts, nil
}

// Fig9 reproduces the inter-layer sparsity correlation analysis of paper
// Fig. 9 for BERT and GPT-2 (the property motivating the linear latency
// predictor).
func Fig9(opts Options) ([]Artifact, error) {
	var arts []Artifact
	for _, name := range []string{"bert", "gpt2"} {
		m, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		stream := dataset.MustStream(m, dataset.LanguagePreset(m), 9)
		corr := dataset.Correlation(stream, opts.DatasetSamples)

		var b strings.Builder
		fmt.Fprintf(&b, "Pearson correlation of per-layer sparsity (%d layers)\n", len(corr))
		var sum float64
		var count int
		for i := range corr {
			for j := range corr[i] {
				fmt.Fprintf(&b, "%5.2f ", corr[i][j])
				if i != j {
					sum += corr[i][j]
					count++
				}
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "mean off-diagonal correlation: %.3f (paper: ~0.8-1.0)\n",
			sum/float64(count))
		arts = append(arts, &Text{ID: "fig9", Title: "sparsity correlation, " + name, Body: b.String()})
	}
	return arts, nil
}
