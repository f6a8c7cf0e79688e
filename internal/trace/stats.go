package trace

import (
	"fmt"
	"sort"
	"time"

	"sparsedysta/internal/sparsity"
)

// Stats is the offline profiling summary for one model-pattern pair — the
// content of Dysta's model-info LUT entry (paper §4.2.1: sparsity pattern,
// average sparsity across layers, average latency on the target hardware)
// extended with the per-layer averages the predictor and baselines consume.
type Stats struct {
	Key Key
	// AvgTotal is the mean isolated end-to-end latency.
	AvgTotal time.Duration
	// AvgLayerLatency[l] is the mean isolated latency of layer l.
	AvgLayerLatency []time.Duration
	// AvgLayerSparsity[l] is the mean dynamic sparsity of layer l.
	AvgLayerSparsity []float64
	// AvgNetworkSparsity is the mean over layers of AvgLayerSparsity.
	AvgNetworkSparsity float64
	// LatSparsitySlope[l] is the fitted linear sensitivity of layer l's
	// latency to its dynamic sparsity, in nanoseconds per unit sparsity
	// (negative: sparser runs faster). This is the "shape" information of
	// the hardware LUTs (paper §5.2.1) that lets the sparse latency
	// predictor map a monitored sparsity coefficient to latency.
	LatSparsitySlope []float64
	// Samples is the number of profiled requests.
	Samples int
	// suffix[l] is the mean isolated latency of layers l..end, so that
	// AvgRemaining is O(1).
	suffix []time.Duration
	// suffixSens[l] is the suffix sum of LatSparsitySlope[l]*AvgLayerSparsity[l]:
	// the remaining-latency sensitivity to a multiplicative sparsity
	// coefficient (see SensitivityRemaining).
	suffixSens []float64
	// suffixSensDensity[l] is the suffix sum of
	// -LatSparsitySlope[l]*(1-AvgLayerSparsity[l]): the sensitivity to a
	// multiplicative density coefficient.
	suffixSensDensity []float64
}

// Summarize profiles a set of traces into LUT statistics. It returns an
// error on empty or ragged input.
func Summarize(k Key, traces []SampleTrace) (*Stats, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("trace: no traces to summarize for %v", k)
	}
	layers := traces[0].NumLayers()
	st := &Stats{
		Key:              k,
		AvgLayerLatency:  make([]time.Duration, layers),
		AvgLayerSparsity: make([]float64, layers),
		Samples:          len(traces),
	}
	latSums := make([]float64, layers)
	for _, tr := range traces {
		if tr.NumLayers() != layers {
			return nil, fmt.Errorf("trace: ragged traces for %v: %d vs %d layers",
				k, tr.NumLayers(), layers)
		}
		for l := 0; l < layers; l++ {
			latSums[l] += float64(tr.LayerLatency[l])
			st.AvgLayerSparsity[l] += tr.LayerSparsity[l]
		}
	}
	n := float64(len(traces))
	var totalLat float64
	var totalSp float64
	for l := 0; l < layers; l++ {
		st.AvgLayerLatency[l] = time.Duration(latSums[l] / n)
		st.AvgLayerSparsity[l] /= n
		totalLat += latSums[l] / n
		totalSp += st.AvgLayerSparsity[l]
	}
	st.AvgTotal = time.Duration(totalLat)
	st.AvgNetworkSparsity = totalSp / float64(layers)

	// Fit the per-layer latency-vs-sparsity slope by least squares over
	// the profiling set: slope = cov(lat, s) / var(s). Constant-sparsity
	// layers get slope 0 (their latency carries no dynamic signal).
	st.LatSparsitySlope = make([]float64, layers)
	for l := 0; l < layers; l++ {
		var cov, varS float64
		meanLat := float64(st.AvgLayerLatency[l])
		meanS := st.AvgLayerSparsity[l]
		for _, tr := range traces {
			ds := tr.LayerSparsity[l] - meanS
			cov += ds * (float64(tr.LayerLatency[l]) - meanLat)
			varS += ds * ds
		}
		if varS > 1e-12 {
			st.LatSparsitySlope[l] = cov / varS
		}
	}

	st.suffix = make([]time.Duration, layers+1)
	st.suffixSens = make([]float64, layers+1)
	st.suffixSensDensity = make([]float64, layers+1)
	for l := layers - 1; l >= 0; l-- {
		st.suffix[l] = st.suffix[l+1] + st.AvgLayerLatency[l]
		st.suffixSens[l] = st.suffixSens[l+1] +
			st.LatSparsitySlope[l]*st.AvgLayerSparsity[l]
		st.suffixSensDensity[l] = st.suffixSensDensity[l+1] -
			st.LatSparsitySlope[l]*(1-st.AvgLayerSparsity[l])
	}
	return st, nil
}

// RemainingCurve returns the per-layer remaining-latency curve c, with
// c[l] == AvgRemaining(l) for 0 <= l <= NumLayers (c[NumLayers] is 0).
// The slice is the Stats' own suffix table, shared across callers:
// read-only, never to be mutated. Engines cache it per task so that
// re-evaluating the remaining-work estimate after each executed layer is
// a slice index instead of a LUT lookup (the incremental-backlog hot
// path).
func (s *Stats) RemainingCurve() []time.Duration { return s.suffix }

// AvgRemaining returns the mean isolated latency of layers from index
// `from` to the end; from == NumLayers yields 0.
func (s *Stats) AvgRemaining(from int) time.Duration {
	if from < 0 {
		from = 0
	}
	if from >= len(s.suffix) {
		return 0
	}
	return s.suffix[from]
}

// SensitivityRemaining returns d(remaining latency)/d(gamma) in
// nanoseconds for a multiplicative sparsity coefficient gamma (predicted
// layer sparsity = gamma * average): the linear-model term the sparse
// latency predictor adds to AvgRemaining. It is negative when sparser
// samples run faster.
func (s *Stats) SensitivityRemaining(from int) float64 {
	if from < 0 {
		from = 0
	}
	if from >= len(s.suffixSens) {
		return 0
	}
	return s.suffixSens[from]
}

// SensitivityRemainingDensity is the analogous sensitivity for a
// multiplicative density coefficient (predicted layer density =
// gammaD * average density).
func (s *Stats) SensitivityRemainingDensity(from int) float64 {
	if from < 0 {
		from = 0
	}
	if from >= len(s.suffixSensDensity) {
		return 0
	}
	return s.suffixSensDensity[from]
}

// NumLayers returns the profiled layer count.
func (s *Stats) NumLayers() int { return len(s.AvgLayerLatency) }

// StatsSet indexes Stats by key: the full model-info LUT shared by the
// static scheduler and the hardware LUTs.
type StatsSet struct {
	// byIndex[i] is the entry of the key with dense index i, nil for a
	// key never profiled. A key interned after the set was built indexes
	// past its end, so it reads as unprofiled too.
	byIndex []*Stats
}

// NewStatsSet builds the LUT from a profiling store.
func NewStatsSet(profiling *Store) (*StatsSet, error) {
	set := &StatsSet{}
	for _, k := range profiling.Keys() {
		st, err := Summarize(k, profiling.Get(k))
		if err != nil {
			return nil, err
		}
		i := k.index()
		if i >= len(set.byIndex) {
			set.byIndex = append(set.byIndex, make([]*Stats, i+1-len(set.byIndex))...)
		}
		set.byIndex[i] = st
	}
	return set, nil
}

// Lookup returns the LUT entry for a key, or nil if the pair was never
// profiled. It reads the entry by the key's dense index: no hashing.
func (s *StatsSet) Lookup(k Key) *Stats {
	if i := k.index(); i < len(s.byIndex) {
		return s.byIndex[i]
	}
	return nil
}

// MustLookup returns the LUT entry or panics; schedulers use it after
// workload validation has ensured every pair is profiled.
func (s *StatsSet) MustLookup(k Key) *Stats {
	st := s.Lookup(k)
	if st == nil {
		panic(fmt.Sprintf("trace: no profiling stats for %v", k))
	}
	return st
}

// Keys returns the profiled keys in interning order.
func (s *StatsSet) Keys() []Key {
	var out []Key
	for _, st := range s.byIndex {
		if st != nil {
			out = append(out, st.Key)
		}
	}
	return out
}

// MergedByModel collapses the per-pattern LUT entries of one model into a
// single pattern-blind summary, weighting each pattern by its profiled
// sample count. This models the status-quo schedulers of paper Table 1,
// whose offline profiles are per-model and ignore the sparsity pattern.
// It returns nil if the model was never profiled.
func (s *StatsSet) MergedByModel(model string) *Stats {
	var members []*Stats
	total := 0
	for _, st := range s.byIndex {
		if st != nil && st.Key.Model() == model {
			members = append(members, st)
			total += st.Samples
		}
	}
	if len(members) == 0 {
		return nil
	}
	// Accumulate in pattern order: float addition is not associative, so
	// merging in interning order would make the merged profile — and
	// every schedule derived from it — depend on which pair a process
	// happened to intern first.
	sort.Slice(members, func(i, j int) bool { return members[i].Key.Pattern() < members[j].Key.Pattern() })
	if len(members) == 1 {
		return members[0]
	}
	layers := members[0].NumLayers()
	merged := &Stats{
		Key:              NewKey(model, sparsity.Dense),
		AvgLayerLatency:  make([]time.Duration, layers),
		AvgLayerSparsity: make([]float64, layers),
		LatSparsitySlope: make([]float64, layers),
		Samples:          total,
	}
	for _, st := range members {
		w := float64(st.Samples) / float64(total)
		for l := 0; l < layers; l++ {
			merged.AvgLayerLatency[l] += time.Duration(w * float64(st.AvgLayerLatency[l]))
			merged.AvgLayerSparsity[l] += w * st.AvgLayerSparsity[l]
			merged.LatSparsitySlope[l] += w * st.LatSparsitySlope[l]
		}
		merged.AvgNetworkSparsity += w * st.AvgNetworkSparsity
	}
	merged.suffix = make([]time.Duration, layers+1)
	merged.suffixSens = make([]float64, layers+1)
	merged.suffixSensDensity = make([]float64, layers+1)
	var totalLat time.Duration
	for l := layers - 1; l >= 0; l-- {
		totalLat += merged.AvgLayerLatency[l]
		merged.suffix[l] = merged.suffix[l+1] + merged.AvgLayerLatency[l]
		merged.suffixSens[l] = merged.suffixSens[l+1] +
			merged.LatSparsitySlope[l]*merged.AvgLayerSparsity[l]
		merged.suffixSensDensity[l] = merged.suffixSensDensity[l+1] -
			merged.LatSparsitySlope[l]*(1-merged.AvgLayerSparsity[l])
	}
	merged.AvgTotal = totalLat
	return merged
}
