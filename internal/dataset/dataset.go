// Package dataset synthesizes the per-sample, per-layer dynamic sparsity
// streams that stand in for the paper's real datasets (ImageNet, ExDark,
// DarkFace, COCO for vision; SQuAD, GLUE for language — paper §3.1).
//
// The scheduler-visible signal of a dataset is exactly one vector per
// sample: the dynamic sparsity of each layer (ReLU activation sparsity for
// CNNs, pruned-attention sparsity for AttNNs). We generate those vectors
// from a single-latent-factor model:
//
//	s[l] = clamp(mean[l] + load[l]*(z + dark) + noise[l])
//
// where z ~ N(0,1) is the sample's informativeness (simple/dark inputs have
// more zeros), dark is a low-light mixture shift emulating the ExDark and
// DarkFace out-of-distribution inputs the paper adds (§2.3.1), and noise is
// small per-layer jitter. The construction reproduces the three statistics
// the paper measures of real data:
//
//   - per-layer sparsity spread (Fig. 3: most layers range 10-45%);
//   - network-sparsity relative range (Table 2: 15-28% depending on model);
//   - strong inter-layer Pearson correlation (Fig. 9: ~0.8-1.0), because
//     all layers share the latent factor.
//
// See DESIGN.md §2 for the substitution argument.
package dataset

import (
	"fmt"

	"sparsedysta/internal/models"
	"sparsedysta/internal/rng"
	"sparsedysta/internal/stats"
)

// Preset parameterizes the generative model for one (model, dataset) pair.
type Preset struct {
	// Name identifies the emulated dataset (for reports).
	Name string
	// LayerMeans is the mean dynamic sparsity of each layer.
	LayerMeans []float64
	// LayerLoads is each layer's loading on the shared latent factor.
	LayerLoads []float64
	// NoiseSD is the per-layer independent jitter.
	NoiseSD float64
	// DarkFraction is the probability a sample comes from the low-light
	// (out-of-distribution) mixture component; 0 for language datasets.
	DarkFraction float64
	// DarkShift is the latent shift of low-light samples (more zeros).
	DarkShift float64
	// Lo, Hi clamp the generated sparsity.
	Lo, Hi float64
}

// Validate reports whether the preset is internally consistent for the
// given model.
func (p *Preset) Validate(m *models.Model) error {
	if len(p.LayerMeans) != m.NumLayers() || len(p.LayerLoads) != m.NumLayers() {
		return fmt.Errorf("dataset: preset %q has %d/%d layer params for %d-layer model %s",
			p.Name, len(p.LayerMeans), len(p.LayerLoads), m.NumLayers(), m.Name)
	}
	if p.Lo >= p.Hi {
		return fmt.Errorf("dataset: preset %q clamp range [%v,%v) empty", p.Name, p.Lo, p.Hi)
	}
	return nil
}

// Sample is one input's dynamic sparsity trajectory.
type Sample struct {
	// Sparsity[l] is the dynamic sparsity of layer l in [0,1].
	Sparsity []float64
	// Dark reports whether the sample came from the low-light mixture.
	Dark bool
}

// NetworkSparsity returns the mean sparsity across layers, the paper's
// Table 2 quantity.
func (s Sample) NetworkSparsity() float64 { return stats.Mean(s.Sparsity) }

// Stream draws samples for one model under one preset. Next returns each
// sample in a row of its own; Fill draws the same sample into a row the
// caller owns, so that Phase 1 (trace.Build) writes every sample of a
// build into one array. It is not safe for concurrent use; derive
// per-goroutine streams with independent seeds.
type Stream struct {
	model  *models.Model
	preset Preset
	r      *rng.Source
}

// NewStream returns a Stream for model m. The preset must match the
// model's layer count.
func NewStream(m *models.Model, preset Preset, seed uint64) (*Stream, error) {
	if err := preset.Validate(m); err != nil {
		return nil, err
	}
	return &Stream{model: m, preset: preset, r: rng.New(seed)}, nil
}

// MustStream is NewStream that panics on preset errors; for use with the
// package's own presets, which are correct by construction.
func MustStream(m *models.Model, preset Preset, seed uint64) *Stream {
	s, err := NewStream(m, preset, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Model returns the stream's model.
func (s *Stream) Model() *models.Model { return s.model }

// Preset returns the stream's preset.
func (s *Stream) Preset() Preset { return s.preset }

// Next draws the next sample into a new row.
func (s *Stream) Next() Sample {
	sp := make([]float64, len(s.preset.LayerMeans))
	dark := s.Fill(sp)
	return Sample{Sparsity: sp, Dark: dark}
}

// Fill draws the next sample's sparsity into sp, one entry per layer of
// the stream's model, and reports whether the sample came from the
// low-light mixture. It makes the draws Next makes.
func (s *Stream) Fill(sp []float64) (dark bool) {
	p := &s.preset
	z := s.r.Norm()
	dark = s.r.Bernoulli(p.DarkFraction)
	if dark {
		z += p.DarkShift
	}
	for l := range p.LayerMeans {
		if p.LayerMeans[l] == 0 && p.LayerLoads[l] == 0 {
			// A zero mean and zero loading marks a structurally dense
			// layer (e.g. the first convolution reading the raw image).
			sp[l] = 0
			continue
		}
		v := p.LayerMeans[l] + p.LayerLoads[l]*z + s.r.NormAt(0, p.NoiseSD)
		sp[l] = stats.Clamp(v, p.Lo, p.Hi)
	}
	return dark
}

// Draw returns n samples.
func (s *Stream) Draw(n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// ChannelDensities expands a layer-level activation density into a
// per-input-channel density profile, used by the valid-MAC profiling of
// paper Fig. 4. Channel densities vary around the layer mean (spread is
// the standard deviation of the variation) and are clamped to [0,1].
func ChannelDensities(r *rng.Source, cin int, layerDensity, spread float64) []float64 {
	out := make([]float64, cin)
	for i := range out {
		out[i] = stats.Clamp(r.NormAt(layerDensity, spread), 0, 1)
	}
	return out
}

// wiggle returns a deterministic per-layer perturbation in [-1,1] derived
// from the model name and layer index, so that layer means differ in a
// stable, model-specific way without carrying tables of constants.
func wiggle(model string, layer int) float64 {
	h := uint64(1469598103934665603)
	for _, c := range model {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h = (h ^ uint64(layer)) * 1099511628211
	h ^= h >> 33
	return float64(h%2048)/1024 - 1
}

// cnnProfile holds the calibration constants for one CNN's activation
// sparsity, tuned to reproduce the paper's Table 2 relative ranges
// (GoogLeNet 28.3%, VGG-16 21.8%, InceptionV3 23.0%, ResNet-50 15.1%).
type cnnProfile struct {
	base, depthSlope, wiggleAmp, load float64
}

var cnnProfiles = map[string]cnnProfile{
	"resnet50":    {base: 0.32, depthSlope: 0.22, wiggleAmp: 0.08, load: 0.007},
	"vgg16":       {base: 0.36, depthSlope: 0.26, wiggleAmp: 0.07, load: 0.012},
	"googlenet":   {base: 0.33, depthSlope: 0.22, wiggleAmp: 0.08, load: 0.0145},
	"inceptionv3": {base: 0.33, depthSlope: 0.22, wiggleAmp: 0.08, load: 0.011},
	"mobilenet":   {base: 0.30, depthSlope: 0.20, wiggleAmp: 0.07, load: 0.010},
	"ssd":         {base: 0.34, depthSlope: 0.20, wiggleAmp: 0.07, load: 0.010},
}

// VisionPreset returns the ImageNet-like preset for a CNN, optionally
// mixed with low-light (ExDark/DarkFace-like) inputs. The first layer sees
// the raw image and carries no activation sparsity.
func VisionPreset(m *models.Model, lowLight bool) Preset {
	prof, ok := cnnProfiles[m.Name]
	if !ok {
		prof = cnnProfile{base: 0.33, depthSlope: 0.22, wiggleAmp: 0.08, load: 0.015}
	}
	n := m.NumLayers()
	means := make([]float64, n)
	loads := make([]float64, n)
	for l := 0; l < n; l++ {
		depth := float64(l) / float64(max(n-1, 1))
		means[l] = prof.base + prof.depthSlope*depth + prof.wiggleAmp*wiggle(m.Name, l)
		loads[l] = prof.load * (0.8 + 0.4*depth)
	}
	means[0] = 0 // raw image input is dense
	loads[0] = 0
	p := Preset{
		Name:       "imagenet",
		LayerMeans: means,
		LayerLoads: loads,
		NoiseSD:    0.02,
		Lo:         0.0,
		Hi:         0.95,
	}
	if lowLight {
		p.Name = "imagenet+lowlight"
		p.DarkFraction = 0.25
		p.DarkShift = 2.2
	}
	return p
}

// attnnProfile holds the calibration constants for one AttNN's attention
// sparsity under the paper's thresholds (§3.2: 0.2 for BART, 0.002 for
// BERT and GPT-2, chosen to preserve accuracy).
type attnnProfile struct {
	base, depthSlope, load, noise float64
	name                          string
}

var attnnProfiles = map[string]attnnProfile{
	"bert": {base: 0.87, depthSlope: 0.05, load: 0.050, noise: 0.010, name: "squad"},
	"gpt2": {base: 0.86, depthSlope: 0.04, load: 0.048, noise: 0.010, name: "glue"},
	"bart": {base: 0.74, depthSlope: 0.04, load: 0.045, noise: 0.012, name: "translation"},
}

// LanguagePreset returns the task preset for an AttNN: SQuAD-like for
// BERT, GLUE-like for GPT-2, translation-like for BART. The shared latent
// factor is the prompt's complexity: simple prompts prune harder and run
// faster (paper Fig. 1c).
func LanguagePreset(m *models.Model) Preset {
	prof, ok := attnnProfiles[m.Name]
	if !ok {
		prof = attnnProfile{base: 0.85, depthSlope: 0.04, load: 0.05, noise: 0.01, name: "language"}
	}
	n := m.NumLayers()
	means := make([]float64, n)
	loads := make([]float64, n)
	for l := 0; l < n; l++ {
		depth := float64(l) / float64(max(n-1, 1))
		means[l] = prof.base + prof.depthSlope*depth + 0.01*wiggle(m.Name, l)
		loads[l] = prof.load
	}
	return Preset{
		Name:       prof.name,
		LayerMeans: means,
		LayerLoads: loads,
		NoiseSD:    prof.noise,
		Lo:         0.50,
		Hi:         0.98,
	}
}

// DefaultPreset selects the benchmark preset for a model: the low-light
// vision mixture for CNNs (the paper's more comprehensive analysis) and
// the task-specific language preset for AttNNs.
func DefaultPreset(m *models.Model) Preset {
	if m.Family == models.CNN {
		return VisionPreset(m, true)
	}
	return LanguagePreset(m)
}

// max is a tiny helper (ints).
func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Correlation computes the inter-layer Pearson correlation matrix of
// dynamic sparsity over n samples from the stream, the paper's Fig. 9
// analysis.
func Correlation(s *Stream, n int) [][]float64 {
	layers := s.model.NumLayers()
	series := make([][]float64, layers)
	for l := range series {
		series[l] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		sp := s.Next().Sparsity
		for l, v := range sp {
			series[l][i] = v
		}
	}
	return stats.CorrelationMatrix(series)
}
