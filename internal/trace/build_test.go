package trace_test

import (
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/accel"
	"sparsedysta/internal/dataset"
	"sparsedysta/internal/models"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// buildPerSample is the Phase 1 loop Build replaced: each sample drawn
// into a row of its own by Stream.Next, and each layer's latency taken
// from a plan of that layer alone, every trace keyed by the model and
// pattern. Build must equal it.
func buildPerSample(acc accel.Accelerator, cfg trace.BuildConfig) []trace.SampleTrace {
	stream := dataset.MustStream(cfg.Model, dataset.DefaultPreset(cfg.Model), cfg.Seed)
	out := make([]trace.SampleTrace, cfg.Samples)
	for i := range out {
		sample := stream.Next()
		tr := trace.SampleTrace{
			Key:           trace.NewKey(cfg.Model.Name, cfg.Pattern),
			LayerLatency:  make([]time.Duration, cfg.Model.NumLayers()),
			LayerSparsity: sample.Sparsity,
		}
		for l := range cfg.Model.Layers {
			layer := &models.Model{Family: cfg.Model.Family, Layers: cfg.Model.Layers[l : l+1]}
			tr.LayerLatency[l] = accel.ModelLatency(acc, layer, accel.LayerSparsity{
				Pattern:            cfg.Pattern,
				WeightRate:         cfg.WeightRate,
				ActivationSparsity: sample.Sparsity[l],
			})
		}
		out[i] = tr
	}
	return out
}

// TestBuildMatchesPerSampleLoop: for every entry of both benchmark
// scenarios, Build's traces deep-equal the per-sample loop's, latencies
// and sparsities bit for bit.
func TestBuildMatchesPerSampleLoop(t *testing.T) {
	for _, sc := range []workload.Scenario{workload.MultiCNN(), workload.MultiAttNN()} {
		for i, e := range sc.Entries {
			cfg := trace.BuildConfig{Model: e.Model, Pattern: e.Pattern, WeightRate: e.WeightRate,
				Samples: 12, Seed: uint64(i) + 3}
			got, err := trace.Build(sc.Accel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := buildPerSample(sc.Accel, cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: entry %d (%v): Build differs from the per-sample loop", sc.Name, i, e.Key())
			}
		}
	}
}

// TestBuildAllocationsIndependentOfSamples: a build plans once and draws
// every sample into two arrays, so 400 samples allocate what one does.
func TestBuildAllocationsIndependentOfSamples(t *testing.T) {
	sc := workload.MultiCNN()
	e := sc.Entries[0]
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := trace.Build(sc.Accel, trace.BuildConfig{Model: e.Model, Pattern: e.Pattern,
				WeightRate: e.WeightRate, Samples: samples, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(400); one != many {
		t.Errorf("Build made %v allocations at 1 sample and %v at 400, want equal", one, many)
	}
}

// TestBuiltTracesDoNotShareCapacity: traces share one backing array per
// build, but each trace's slices end at its own row, so appending to one
// trace leaves the next unchanged.
func TestBuiltTracesDoNotShareCapacity(t *testing.T) {
	traces, err := trace.Build(workload.MultiAttNN().Accel, trace.BuildConfig{Model: models.BERTBase(), Samples: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	next := trace.SampleTrace{
		Key:           traces[1].Key,
		LayerLatency:  append([]time.Duration(nil), traces[1].LayerLatency...),
		LayerSparsity: append([]float64(nil), traces[1].LayerSparsity...),
	}
	_ = append(traces[0].LayerLatency, -1)
	_ = append(traces[0].LayerSparsity, -1)
	if !reflect.DeepEqual(traces[1], next) {
		t.Errorf("appending to trace 0 changed trace 1: %v", traces[1])
	}
}
