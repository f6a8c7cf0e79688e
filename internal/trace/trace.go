// Package trace implements Phase 1 of the paper's evaluation methodology
// (§3.3.1, Fig. 7): running the hardware simulator over a dataset to
// produce "runtime information" — per-layer latency and sparsity for every
// (model, pattern, input) triple — which is saved to files and later
// replayed by the scheduler engine in Phase 2.
//
// It also derives the offline profiling statistics (average latency and
// average layer sparsity per model-pattern pair) that populate Dysta's
// model-info LUTs (paper §4.2.1) and every baseline's latency estimates.
package trace

import (
	"fmt"
	"time"

	"sparsedysta/internal/accel"
	"sparsedysta/internal/dataset"
	"sparsedysta/internal/models"
	"sparsedysta/internal/sparsity"
)

// SampleTrace is the runtime information of one input processed in
// isolation: what the hardware simulator measured per layer.
type SampleTrace struct {
	// Key is the model-pattern pair the input was measured under. Build
	// and ReadCSV set it, and Store.Add stamps it on the store's copy with
	// the key the copy is filed under, so a request drawn from a store
	// reads its key here instead of carrying its own.
	Key Key
	// LayerLatency[l] is layer l's isolated execution latency.
	LayerLatency []time.Duration
	// LayerSparsity[l] is the dynamic sparsity the hardware monitor
	// observes at layer l.
	LayerSparsity []float64
	// total is the sum of LayerLatency, stamped by Store.Add on the
	// store's copy (0 on a trace no store holds), so that Total is one
	// load for every request drawn from a store.
	total time.Duration
}

// Total returns the isolated end-to-end latency (the paper's T_isol). A
// stored trace returns its stamp; any other trace sums its layers.
func (t *SampleTrace) Total() time.Duration {
	if t.total != 0 {
		return t.total
	}
	return t.layerSum()
}

// layerSum sums the layer latencies.
func (t *SampleTrace) layerSum() time.Duration {
	var sum time.Duration
	for _, d := range t.LayerLatency {
		sum += d
	}
	return sum
}

// Remaining returns the isolated latency of layers from index `from` to
// the end.
func (t *SampleTrace) Remaining(from int) time.Duration {
	var sum time.Duration
	for _, d := range t.LayerLatency[from:] {
		sum += d
	}
	return sum
}

// NumLayers returns the layer count of the trace.
func (t *SampleTrace) NumLayers() int { return len(t.LayerLatency) }

// BuildConfig controls trace generation for one model-pattern pair.
type BuildConfig struct {
	Model *models.Model
	// Pattern and WeightRate define the static sparsification. AttNN
	// models conventionally use Dense/0 (their sparsity is dynamic).
	Pattern    sparsity.Pattern
	WeightRate float64
	// Samples is the number of inputs to process.
	Samples int
	// Seed makes generation reproducible.
	Seed uint64
}

// Build runs the hardware simulator over cfg.Samples inputs and returns
// their runtime information, the Phase 1 step of Fig. 7. It plans the
// model's latencies once (accel.Accelerator.Plan) and draws every sample
// into one latency array and one sparsity array: trace i's slices are
// its rows, capped at their ends so that an append to one trace copies
// instead of overwriting the next.
func Build(acc accel.Accelerator, cfg BuildConfig) ([]SampleTrace, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("trace: nil model")
	}
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("trace: non-positive sample count %d", cfg.Samples)
	}
	// The negated test also rejects NaN, which fails every comparison.
	if !(cfg.WeightRate >= 0 && cfg.WeightRate < 1) {
		return nil, fmt.Errorf("trace: weight sparsity rate %v outside [0, 1)", cfg.WeightRate)
	}
	if acc.Family() != cfg.Model.Family {
		return nil, fmt.Errorf("trace: model %s (family %v) on accelerator %s (family %v)",
			cfg.Model.Name, cfg.Model.Family, acc.Name(), acc.Family())
	}
	stream, err := dataset.NewStream(cfg.Model, dataset.DefaultPreset(cfg.Model), cfg.Seed)
	if err != nil {
		return nil, err
	}

	plan := acc.Plan(cfg.Model, cfg.Pattern, cfg.WeightRate)
	k := NewKey(cfg.Model.Name, cfg.Pattern)
	n := cfg.Model.NumLayers()
	lat := make([]time.Duration, cfg.Samples*n)
	sp := make([]float64, cfg.Samples*n)
	out := make([]SampleTrace, cfg.Samples)
	for i := range out {
		lo, hi := i*n, (i+1)*n
		tr := &out[i]
		tr.Key, tr.LayerLatency, tr.LayerSparsity = k, lat[lo:hi:hi], sp[lo:hi:hi]
		stream.Fill(tr.LayerSparsity)
		plan.Latencies(tr.LayerLatency, tr.LayerSparsity)
	}
	return out, nil
}

// Store holds runtime information for many model-pattern pairs: the file
// set produced by Phase 1.
type Store struct {
	byKey map[Key][]SampleTrace
	sums  map[Key]float64
}

// NewStore returns an empty Store.
func NewStore() *Store {
	return &Store{byKey: map[Key][]SampleTrace{}, sums: map[Key]float64{}}
}

// Add appends copies of the traces under the key, stamps each copy's
// key and total and folds the totals into the key's SumTotals. A stored
// trace must not be mutated afterwards: its stamps would go stale.
func (s *Store) Add(k Key, traces []SampleTrace) {
	n := len(s.byKey[k])
	stored := append(s.byKey[k], traces...)
	sum := s.sums[k]
	for i := n; i < len(stored); i++ {
		stored[i].Key = k
		stored[i].total = stored[i].layerSum()
		sum += float64(stored[i].total)
	}
	s.byKey[k] = stored
	s.sums[k] = sum
}

// Get returns the traces stored under the key (nil if absent).
func (s *Store) Get(k Key) []SampleTrace { return s.byKey[k] }

// SumTotals returns the float sum of the key's trace totals (T_isol),
// accumulated in trace order as Add stored them: the numerator of the
// key's mean isolated latency, kept so that every stream drawn from the
// store reads it instead of re-summing each trace (0 if absent).
func (s *Store) SumTotals(k Key) float64 { return s.sums[k] }

// Keys returns all stored keys (order unspecified).
func (s *Store) Keys() []Key {
	out := make([]Key, 0, len(s.byKey))
	for k := range s.byKey {
		out = append(out, k)
	}
	return out
}

// Len returns the number of stored keys.
func (s *Store) Len() int { return len(s.byKey) }
