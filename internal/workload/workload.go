// Package workload generates multi-DNN request streams for Phase 2 of the
// paper's methodology (§3.3.1): requests are sampled from the benchmark's
// model-pattern pairs, arrive following a Poisson process (MLPerf server
// style, §6.2), and carry latency SLOs of T_isol x M_slo (§6.1).
package workload

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"sparsedysta/internal/accel"
	"sparsedysta/internal/accel/eyeriss"
	"sparsedysta/internal/accel/sanger"
	"sparsedysta/internal/models"
	"sparsedysta/internal/rng"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/traffic"
)

// Entry is one sampleable model-pattern variant of a scenario.
type Entry struct {
	Model      *models.Model
	Pattern    sparsity.Pattern
	WeightRate float64
	// Weight is the sampling weight of the entry within its scenario.
	Weight float64
	// SLOFactor scales the workload's SLO multiplier for this entry
	// (e.g. 0.3 for a latency-critical hand-tracking task next to
	// best-effort classification, per the deployment mixes of paper
	// Table 3). Zero means 1.0.
	SLOFactor float64
}

// sloFactor returns the effective per-entry SLO scale.
func (e Entry) sloFactor() float64 {
	if e.SLOFactor == 0 {
		return 1
	}
	return e.SLOFactor
}

// check refuses an entry that would draw a silently wrong stream, with
// an error naming it as entry i of its scenario: a nil model (see
// errNilModel), a weight that is not finite and positive, which skews
// every draw of the scenario, and a negative SLO factor, which has no
// meaning (0 means 1). Spec.Scenario and NewStream both apply it.
func (e Entry) check(i int) error {
	if e.Model == nil {
		return errNilModel(i)
	}
	if !(e.Weight > 0) || math.IsInf(e.Weight, 1) {
		return fmt.Errorf("workload: entry %d (%s/%v): weight %v, want finite and > 0", i, e.Model.Name, e.Pattern, e.Weight)
	}
	if !(e.SLOFactor >= 0) {
		return fmt.Errorf("workload: entry %d (%s/%v): SLO factor %v, want >= 0 (0 means 1)", i, e.Model.Name, e.Pattern, e.SLOFactor)
	}
	return nil
}

// errNilModel refuses entry i for having no model. Key dereferences the
// model, so NewStream and MeanIsolated check for one before calling it.
func errNilModel(i int) error {
	return fmt.Errorf("workload: entry %d: nil model", i)
}

// Key returns the trace key of the entry. It interns the pair (see
// trace.NewKey), so per-request code reads a key resolved at set-up
// instead, as Stream does.
func (e Entry) Key() trace.Key {
	return trace.NewKey(e.Model.Name, e.Pattern)
}

// Scenario is a deployment setup of paper Table 3: a set of model-pattern
// entries plus the accelerator that serves them.
type Scenario struct {
	Name    string
	Entries []Entry
	Accel   accel.Accelerator
}

// MultiAttNN returns the mobile personal-assistant scenario: BERT question
// answering plus BART and GPT-2 machine translation on Sanger, all with
// dynamic attention sparsity (no static weight pattern, §3.2).
func MultiAttNN() Scenario {
	entries := make([]Entry, 0, 3)
	for _, m := range models.BenchmarkAttNNs() {
		entries = append(entries, Entry{Model: m, Pattern: sparsity.Dense, Weight: 1})
	}
	return Scenario{Name: "multi-attnn", Entries: entries, Accel: sanger.NewDefault()}
}

// MultiCNN returns the visual-perception + hand-tracking scenario: SSD,
// ResNet-50, VGG-16 and MobileNet on Eyeriss-V2, each appearing under the
// three static sparsity patterns of §3.2 (random point-wise at 80%, 1:4
// block-wise, channel-wise at 70% — the paper exposes the rate as a
// tunable parameter; these settings land the 3 req/s operating point at
// the moderately loaded utilization its Table 5 numbers imply).
func MultiCNN() Scenario {
	variants := []struct {
		pattern sparsity.Pattern
		rate    float64
	}{
		{sparsity.RandomPointwise, 0.80},
		{sparsity.BlockNM, 0.75},
		{sparsity.ChannelWise, 0.70},
	}
	var entries []Entry
	for _, m := range models.BenchmarkCNNs() {
		for _, v := range variants {
			entries = append(entries, Entry{
				Model: m, Pattern: v.pattern, WeightRate: v.rate, Weight: 1})
		}
	}
	return Scenario{Name: "multi-cnn", Entries: entries, Accel: eyeriss.NewDefault()}
}

// Request is one inference task of a workload: a sampled input of a
// model-pattern pair with an arrival time and a latency SLO. Its pair is
// its trace's (Key), so a request is four words.
type Request struct {
	ID int
	// Trace is the ground-truth runtime information of the request's
	// input, pointing into the evaluation store it was sampled from. The
	// engine executes from it; schedulers other than Oracle must not read
	// its layers.
	Trace *trace.SampleTrace
	// Arrival is the request's arrival time from workload start.
	Arrival time.Duration
	// SLO is the relative latency objective: T_isol x M_slo.
	SLO time.Duration
}

// Key returns the request's model-pattern pair: its trace's key, which
// Store.Add stamped on the stored copy (a hand-built trace carries the
// key its builder gave it).
func (r *Request) Key() trace.Key { return r.Trace.Key }

// Deadline returns the absolute completion deadline.
func (r *Request) Deadline() time.Duration { return r.Arrival + r.SLO }

// GenConfig controls request-stream generation.
type GenConfig struct {
	// Requests is the stream length (the paper uses 1000, §6.1).
	Requests int
	// RatePerSec is the Poisson arrival rate.
	RatePerSec float64
	// SLOMultiplier is M_slo (the paper's default is 10x). The SLO of a
	// request is the *mean* isolated latency of its model-pattern pair
	// times M_slo times the entry's SLO factor: SLOs are part of the
	// service contract and cannot depend on the not-yet-known per-sample
	// latency. Each entry's SLO must stay below 2^63 ns, the largest
	// time.Duration.
	SLOMultiplier float64
	// Seed drives sampling and arrivals.
	Seed uint64
	// Process overrides the arrival process. Nil means stationary
	// Poisson at RatePerSec — bit-identical to the historical inline
	// loop, since traffic.Poisson performs the same single Exp draw per
	// request at the same stream position. A non-nil process draws its
	// deviates inline from the generation source (never from a split
	// substream, which would shift every later sampling draw), and is
	// Reset at the start of generation so a stateful process can be
	// reused across streams.
	Process traffic.Process
}

func (c GenConfig) validate() error {
	if c.Requests <= 0 {
		return fmt.Errorf("workload: non-positive request count %d", c.Requests)
	}
	if c.Process != nil {
		if err := c.Process.Validate(); err != nil {
			return err
		}
	} else if err := (&traffic.Poisson{Rate: c.RatePerSec}).Validate(); err != nil {
		return err
	}
	if !(c.SLOMultiplier >= 1 && c.SLOMultiplier < math.Inf(1)) {
		return fmt.Errorf("workload: SLO multiplier %v not finite and at least 1", c.SLOMultiplier)
	}
	return nil
}

// Generate samples a request stream from the scenario using evaluation
// traces from the store. Every scenario entry must have traces in the
// store (use BuildStores). It is the materialized form of NewStream:
// the slice it returns is exactly the drained iterator, so the two
// paths cannot drift apart. The stream's reused request is copied into
// one backing array, so the returned pointers share a single
// allocation and stay valid for as long as any of them is reachable.
func Generate(sc Scenario, store *trace.Store, cfg GenConfig) ([]*Request, error) {
	st, err := NewStream(sc, store, cfg)
	if err != nil {
		return nil, err
	}
	backing := make([]Request, cfg.Requests)
	reqs := make([]*Request, cfg.Requests)
	for i := range backing {
		req, _ := st.Next() // the stream yields exactly cfg.Requests
		backing[i] = *req
		reqs[i] = &backing[i]
	}
	return reqs, nil
}

// sampleEntry draws an entry index proportionally to weight.
func sampleEntry(r *rng.Source, entries []Entry, total float64) int {
	x := r.Float64() * total
	for i := range entries {
		x -= entries[i].Weight
		if x < 0 {
			return i
		}
	}
	return len(entries) - 1
}

// BuildStores runs Phase 1 for every entry of the scenario, producing a
// profiling store (for scheduler LUTs) and a disjoint evaluation store
// (replayed by the engine). Separate seeds keep the profiled inputs
// distinct from the evaluated ones, as offline profiling would be.
//
// Entries build concurrently, one goroutine per model-pattern pair: every
// pair's RNG seed derives from its entry index alone (seed + 2i for
// profiling, seed + 2i + 1 for evaluation), and the per-pair trace slices
// are committed to the stores in entry order after all workers finish, so
// the result is byte-identical to a sequential build (the equivalence
// test in workload_test.go enforces this).
func BuildStores(sc Scenario, profileSamples, evalSamples int, seed uint64) (prof, eval *trace.Store, err error) {
	type built struct {
		prof, eval []trace.SampleTrace
		err        error
	}
	results := make([]built, len(sc.Entries))
	var wg sync.WaitGroup
	for i := range sc.Entries {
		wg.Add(1)
		go func(i int, e Entry) {
			defer wg.Done()
			// Describe the entry without Entry.Key: trace.Build's
			// validation (nil model among it) must surface as an error,
			// and Key derefs the model.
			desc := "<nil>"
			if e.Model != nil {
				desc = e.Key().String()
			}
			base := trace.BuildConfig{
				Model:      e.Model,
				Pattern:    e.Pattern,
				WeightRate: e.WeightRate,
			}
			pcfg := base
			pcfg.Samples = profileSamples
			pcfg.Seed = seed + uint64(i)*2
			ptr, err := trace.Build(sc.Accel, pcfg)
			if err != nil {
				results[i].err = fmt.Errorf("workload: profiling %s: %w", desc, err)
				return
			}
			ecfg := base
			ecfg.Samples = evalSamples
			ecfg.Seed = seed + uint64(i)*2 + 1
			etr, err := trace.Build(sc.Accel, ecfg)
			if err != nil {
				results[i].err = fmt.Errorf("workload: evaluating %s: %w", desc, err)
				return
			}
			results[i] = built{prof: ptr, eval: etr}
		}(i, sc.Entries[i])
	}
	wg.Wait()

	prof, eval = trace.NewStore(), trace.NewStore()
	for i, e := range sc.Entries {
		if results[i].err != nil {
			return nil, nil, results[i].err
		}
		k := e.Key()
		prof.Add(k, results[i].prof)
		eval.Add(k, results[i].eval)
	}
	return prof, eval, nil
}

// MeanIsolated returns the weighted mean isolated latency of the scenario
// under the store's traces — the capacity yardstick used to relate arrival
// rates to utilization.
func MeanIsolated(sc Scenario, store *trace.Store) (time.Duration, error) {
	var sum, weights float64
	for i, e := range sc.Entries {
		if e.Model == nil {
			return 0, errNilModel(i)
		}
		k := e.Key()
		traces := store.Get(k)
		if len(traces) == 0 {
			return 0, fmt.Errorf("workload: no traces for %v", k)
		}
		sum += e.Weight * store.SumTotals(k) / float64(len(traces))
		weights += e.Weight
	}
	return time.Duration(sum / weights), nil
}

// SortByArrival sorts requests in place by arrival time (stable on ID).
func SortByArrival(reqs []*Request) {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
}
