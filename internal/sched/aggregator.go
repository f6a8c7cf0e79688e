package sched

import (
	"cmp"
	"slices"
	"time"

	"sparsedysta/internal/stats"
)

// Aggregator folds completed requests into a Result's metrics (paper
// §6.1), one TaskOutcome at a time and in the order they complete. It is
// the only source of those metrics: every engine feeds its own at each
// completion instant, and the cluster feeds one through its engines'
// Observer hooks in global completion order. The ordered float sums
// (ANTT, MeanLatency, per-model ANTT) therefore accumulate in
// completion order everywhere, so the two capture modes agree exactly
// on every metric except the latency percentiles.
//
// Full capture retains the latencies themselves, so the percentiles are
// exact order statistics (linear interpolation between closest ranks);
// bounded capture (Options.BoundedCapture) keeps a log-bucketed
// histogram instead, so memory stays independent of the run length.
type Aggregator struct {
	n, violations   int
	turnSum, latSum float64
	// first is the earliest arrival and last the latest completion among
	// the folded outcomes.
	first, last time.Duration
	// perModel holds one tally per model in first-seen order; a run
	// serves a handful of models, so Add finds its tally by a short scan
	// instead of hashing the name, and Result builds the map.
	perModel []modelTally

	latencies []float64           // full capture
	hist      *stats.DurationHist // bounded capture
	exemplars *stats.Reservoir[TaskOutcome]
	// tasks retains every outcome when keepTasks (Options.RecordTasks
	// under full capture).
	tasks     []TaskOutcome
	keepTasks bool
}

// modelTally is one model's running per-model metrics.
type modelTally struct {
	model string
	m     ModelMetrics
}

// NewAggregator sizes an aggregator for opts' capture mode: BoundedCapture
// selects the histogram and, with a positive Exemplars, an exemplar
// reservoir seeded by ExemplarSeed; otherwise the latencies are kept,
// and RecordTasks retains every outcome for Result.Tasks.
func NewAggregator(opts Options) *Aggregator {
	a := &Aggregator{}
	if opts.BoundedCapture {
		a.hist = &stats.DurationHist{}
		if opts.Exemplars > 0 {
			a.exemplars = stats.NewReservoir[TaskOutcome](opts.Exemplars, opts.ExemplarSeed)
		}
	} else {
		a.keepTasks = opts.RecordTasks
	}
	return a
}

// reset empties the aggregator in its capture mode, keeping the storage
// of its buffers, and re-seeds the exemplar reservoir with seed, so it
// folds exactly like a new one: the re-arm of a crashed engine.
func (a *Aggregator) reset(seed uint64) {
	*a = Aggregator{
		perModel:  a.perModel[:0],
		latencies: a.latencies[:0],
		hist:      a.hist,
		exemplars: a.exemplars,
		tasks:     a.tasks[:0],
		keepTasks: a.keepTasks,
	}
	if a.hist != nil {
		*a.hist = stats.DurationHist{}
	}
	if a.exemplars != nil {
		a.exemplars.Reset(seed)
	}
}

// maxReserve caps the outcomes Reserve makes room for: 1<<24 latencies
// are 128 MiB (and as many retained outcomes 1 GiB), so a huge request
// count runs out of memory, if at all, the way append growth would, not
// in one allocation at the start of the run.
const maxReserve = 1 << 24

// Reserve makes room for n outcomes under full capture, so that n Adds
// allocate nothing for the latencies or, under RecordTasks, for the
// retained outcomes. It is a capacity hint: more Adds grow the buffers
// as before, and no result depends on it. Bounded capture keeps no
// per-outcome state, so there it does nothing, as it does for n <= 0;
// n above maxReserve reserves maxReserve.
func (a *Aggregator) Reserve(n int) {
	if a.hist != nil || n <= 0 {
		return
	}
	n = min(n, maxReserve)
	if cap(a.latencies) < n {
		a.latencies = append(make([]float64, 0, n), a.latencies...)
	}
	if a.keepTasks && cap(a.tasks) < n {
		a.tasks = append(make([]TaskOutcome, 0, n), a.tasks...)
	}
}

// ReserveFor calls Reserve with src's length when src reports one (see
// RequestSource), the sizing both streaming loops apply to the
// aggregator they fold the run into.
func (a *Aggregator) ReserveFor(src RequestSource) {
	if l, ok := src.(interface{ Len() int }); ok {
		a.Reserve(l.Len())
	}
}

// Add folds one completed request.
func (a *Aggregator) Add(o TaskOutcome) {
	a.n++
	lat := o.Completion - o.Arrival
	a.turnSum += o.NTT
	a.latSum += float64(lat)
	if a.hist != nil {
		a.hist.Add(lat)
	} else {
		a.latencies = append(a.latencies, float64(lat))
	}
	if o.Violated {
		a.violations++
	}
	if a.n == 1 || o.Arrival < a.first {
		a.first = o.Arrival
	}
	if o.Completion > a.last {
		a.last = o.Completion
	}
	i := 0
	for i < len(a.perModel) && a.perModel[i].model != o.Model {
		i++
	}
	if i == len(a.perModel) {
		a.perModel = append(a.perModel, modelTally{model: o.Model})
	}
	m := &a.perModel[i].m
	m.Requests++
	m.ANTT += o.NTT
	if o.Violated {
		m.ViolationRate++
	}
	if a.exemplars != nil {
		a.exemplars.Add(o)
	}
	if a.keepTasks {
		a.tasks = append(a.tasks, o)
	}
}

// Len returns the number of folded outcomes.
func (a *Aggregator) Len() int { return a.n }

// FirstArrival returns the earliest arrival among the folded outcomes;
// ok is false before the first one.
func (a *Aggregator) FirstArrival() (first time.Duration, ok bool) { return a.first, a.n > 0 }

// Result returns the folded metrics under the scheduler's name, with the
// makespan measured from since to the last completion. Only the metric
// fields are set: the engine or cluster fills in its own counters. With
// nothing folded, it returns just the name. Calling Result again after
// more Adds reflects them; Tasks is the retained slice itself, sorted by
// task ID.
func (a *Aggregator) Result(scheduler string, since time.Duration) Result {
	res := Result{Scheduler: scheduler}
	if a.n == 0 {
		return res
	}
	n := float64(a.n)
	res.Requests = a.n
	res.Violations = a.violations
	res.ANTT = a.turnSum / n
	res.ViolationRate = float64(a.violations) / n
	res.MeanLatency = time.Duration(a.latSum / n)
	if a.hist != nil {
		res.P50Latency = a.hist.Quantile(50)
		res.P95Latency = a.hist.Quantile(95)
		res.P99Latency = a.hist.Quantile(99)
	} else {
		// The mean reads latSum, so the retained latencies are free to
		// be sorted in place for the percentiles.
		slices.Sort(a.latencies)
		res.P50Latency = time.Duration(stats.PercentileSorted(a.latencies, 50))
		res.P95Latency = time.Duration(stats.PercentileSorted(a.latencies, 95))
		res.P99Latency = time.Duration(stats.PercentileSorted(a.latencies, 99))
	}
	res.Makespan = a.last - since
	if res.Makespan > 0 {
		res.Throughput = n / res.Makespan.Seconds()
		res.Goodput = float64(a.n-a.violations) / res.Makespan.Seconds()
	}
	res.PerModel = make(map[string]ModelMetrics, len(a.perModel))
	for _, pm := range a.perModel {
		m := pm.m
		m.ANTT /= float64(m.Requests)
		m.ViolationRate /= float64(m.Requests)
		res.PerModel[pm.model] = m
	}
	if a.exemplars != nil {
		res.Exemplars = append([]TaskOutcome(nil), a.exemplars.Items()...)
	}
	if a.keepTasks {
		slices.SortFunc(a.tasks, func(x, y TaskOutcome) int { return cmp.Compare(x.ID, y.ID) })
		res.Tasks = a.tasks
	}
	return res
}
