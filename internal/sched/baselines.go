package sched

import (
	"math"
	"sort"
	"time"

	"sparsedysta/internal/trace"
)

// Estimator wraps the offline profiling LUT (trace.StatsSet) with the
// latency estimates every non-oracle scheduler relies on. This is the
// "execution time estimates obtained through an offline profiling stage"
// of paper §2.1.
//
// The default Estimator is pattern-blind: its profile is per model,
// averaged across sparsity patterns, exactly the limitation the paper's
// Table 1 ascribes to the status-quo schedulers ("Pattern Aware: no").
// Dysta's LUT (trace.StatsSet used directly in internal/core) keys by
// model-pattern pair instead.
//
// All merges are computed eagerly at construction, so an Estimator is
// immutable afterwards and safe to share across concurrently running
// simulations (the parallel experiment runner relies on this).
type Estimator struct {
	set *trace.StatsSet
	// byModel holds the pattern-blind merge per model.
	byModel map[string]*trace.Stats
	// meanIsolated is the mean AvgTotal across profiled models: the
	// population prior for traffic the profiling stage never saw.
	meanIsolated time.Duration
}

// NewEstimator returns a pattern-blind Estimator over the profiling LUT.
func NewEstimator(set *trace.StatsSet) *Estimator {
	e := &Estimator{set: set, byModel: map[string]*trace.Stats{}}
	for _, k := range set.Keys() {
		if _, ok := e.byModel[k.Model()]; !ok {
			e.byModel[k.Model()] = set.MergedByModel(k.Model())
		}
	}
	// Accumulate in sorted-model order: float addition is not
	// associative, so map-iteration order would make the prior vary
	// between processes for the same inputs.
	models := make([]string, 0, len(e.byModel))
	for m := range e.byModel {
		models = append(models, m)
	}
	sort.Strings(models)
	var sum float64
	for _, m := range models {
		sum += float64(e.byModel[m].AvgTotal)
	}
	if len(models) > 0 {
		e.meanIsolated = time.Duration(sum / float64(len(models)))
	}
	return e
}

// ModelStats returns the pattern-blind profile merged across the model's
// profiled patterns, or nil when the model was never profiled. Cluster
// dispatch fallbacks use it to avoid the panic of the scheduler-facing
// accessors, which run only after workload validation.
func (e *Estimator) ModelStats(model string) *trace.Stats { return e.byModel[model] }

// MeanIsolated returns the mean profiled isolated latency across models:
// the deterministic last-resort estimate for entirely unprofiled traffic.
func (e *Estimator) MeanIsolated() time.Duration { return e.meanIsolated }

// stats returns the pattern-blind profile for the task's model.
func (e *Estimator) stats(t *Task) *trace.Stats {
	st, ok := e.byModel[t.Key.Model()]
	if !ok {
		panic("sched: no profiling stats for model " + t.Key.Model())
	}
	return st
}

// Isolated returns the profiled mean isolated latency of the task's model
// (across patterns).
func (e *Estimator) Isolated(t *Task) time.Duration {
	return e.stats(t).AvgTotal
}

// Remaining returns the profiled mean latency of the task's unexecuted
// layers.
func (e *Estimator) Remaining(t *Task) time.Duration {
	return e.stats(t).AvgRemaining(t.NextLayer)
}

// estStats reads the profile a baseline attached at arrival, falling back
// to the estimator lookup for tasks the scheduler never saw arrive.
func estStats(e *Estimator, t *Task) *trace.Stats {
	if st, ok := t.Attachment.(*trace.Stats); ok {
		return st
	}
	return e.stats(t)
}

// FCFS is First-Come First-Served: non-preemptive in effect, since the
// earliest arrival stays the minimum until it finishes. The incremental
// path keeps the ready set in a min-heap keyed by (arrival, ID).
type FCFS struct {
	h TaskHeap
}

// NewFCFS returns the FCFS baseline.
func NewFCFS() *FCFS {
	f := &FCFS{}
	f.h.Init(func(a, b *Task) bool {
		return a.Arrival < b.Arrival || (a.Arrival == b.Arrival && a.ID < b.ID)
	})
	return f
}

// Name implements Scheduler.
func (*FCFS) Name() string { return "FCFS" }

// OnArrival implements Scheduler.
func (f *FCFS) OnArrival(t *Task, _ time.Duration) { f.h.Push(t) }

// OnLayerComplete implements Scheduler.
func (f *FCFS) OnLayerComplete(t *Task, _ int, _ float64, _ time.Duration) {
	if t.Done {
		f.h.Remove(t)
	}
}

// OnExtract implements TaskExtractor: release the heap slot.
func (f *FCFS) OnExtract(t *Task, _ time.Duration) { f.h.Remove(t) }

// PickNext implements Scheduler: earliest arrival, ties by ID (the
// reference linear scan).
func (*FCFS) PickNext(ready []*Task, _ time.Duration) *Task {
	best := ready[0]
	for _, t := range ready[1:] {
		if t.Arrival < best.Arrival || (t.Arrival == best.Arrival && t.ID < best.ID) {
			best = t
		}
	}
	return best
}

// PickNextIncremental implements IncrementalScheduler: the heap minimum.
func (f *FCFS) PickNextIncremental(*ReadyQueue, time.Duration) *Task { return f.h.Min() }

// SJF is preemptive Shortest-Job First on profiled average remaining time
// — the "traditional heuristic" of paper §2.3.3, whose latency estimate
// ignores per-sample sparsity (Fig. 5a). The incremental path keeps a
// min-heap on (remaining, ID); a task's key only changes when it executes
// a layer, so one Fix per layer completion maintains the order.
type SJF struct {
	est *Estimator
	h   TaskHeap
}

// NewSJF returns the SJF baseline.
func NewSJF(est *Estimator) *SJF {
	s := &SJF{est: est}
	s.h.Init(byProfiledRemaining)
	return s
}

// byProfiledRemaining orders tasks by (profiled remaining time, ID),
// reading the profile attached at arrival (O(1), no model lookup).
func byProfiledRemaining(a, b *Task) bool {
	ra := a.Attachment.(*trace.Stats).AvgRemaining(a.NextLayer)
	rb := b.Attachment.(*trace.Stats).AvgRemaining(b.NextLayer)
	return ra < rb || (ra == rb && a.ID < b.ID)
}

// Name implements Scheduler.
func (*SJF) Name() string { return "SJF" }

// OnArrival implements Scheduler.
func (s *SJF) OnArrival(t *Task, _ time.Duration) {
	t.Attachment = s.est.stats(t)
	s.h.Push(t)
}

// OnLayerComplete implements Scheduler: the executed task's remaining
// estimate shrank, so its heap position is repaired (or released).
func (s *SJF) OnLayerComplete(t *Task, _ int, _ float64, _ time.Duration) {
	if t.Done {
		s.h.Remove(t)
		t.Attachment = nil
		return
	}
	s.h.Fix(t)
}

// OnExtract implements TaskExtractor: release the heap slot and the
// attached profile (the adopting scheduler re-attaches its own).
func (s *SJF) OnExtract(t *Task, _ time.Duration) {
	s.h.Remove(t)
	t.Attachment = nil
}

// PickNext implements Scheduler: minimum estimated remaining time (the
// reference linear scan).
func (s *SJF) PickNext(ready []*Task, _ time.Duration) *Task {
	best := ready[0]
	bestRem := s.est.Remaining(best)
	for _, t := range ready[1:] {
		if rem := s.est.Remaining(t); rem < bestRem || (rem == bestRem && t.ID < best.ID) {
			best, bestRem = t, rem
		}
	}
	return best
}

// PickNextIncremental implements IncrementalScheduler: the heap minimum.
func (s *SJF) PickNextIncremental(*ReadyQueue, time.Duration) *Task { return s.h.Min() }

// Planaria adapts the deadline-driven task selection of Planaria (Ghodrati
// et al., MICRO 2020) to a time-shared accelerator: with the resource
// requirement pinned to 1 for every task (paper §6.1), its
// slack-and-QoS-driven dispatch reduces to least-slack-first among tasks
// that can still meet their SLO (Planaria's scheduler explicitly checks
// whether a task fits its remaining slack before committing resources);
// tasks that can no longer meet their deadline stop pre-empting feasible
// ones and drain shortest-first. This minimizes SLO violations but makes
// short jobs queue behind urgent long ones, giving the poor ANTT the paper
// reports.
type Planaria struct {
	est *Estimator

	// feasible and hopeless partition the ready tasks. feasible is keyed
	// by the integer k = Deadline - AvgRemaining(NextLayer) (slackKey), so
	// a task's slack at any instant is ms(k - now) in real arithmetic and
	// the heap orders slack across tasks; hopeless holds the tasks whose
	// reference slack fell below zero, keyed (AvgRemaining, ID) like SJF.
	// A waiting task's slack only falls as now grows, so a hopeless task
	// never turns feasible again until it executes a layer, and
	// OnLayerComplete re-classifies the executed task.
	//
	// A pick first moves feasible roots with negative reference slack to
	// hopeless. If none is left, every ready task is hopeless and the pick
	// is the hopeless minimum, the reference's drain branch. Otherwise the
	// root (least k) is feasible and the pick walks the feasible heap
	// depth-first, re-scoring every visited task with the reference float
	// slack and skipping a subtree whose root k exceeds the best task's k
	// by more than the guard (see planariaGuard), so float ties between
	// tasks of nearly equal k still resolve by ID.
	feasible, hopeless TaskHeap
	// remMax is the largest profiled remaining time of any task that
	// arrived: it bounds the magnitudes the guard must cover.
	remMax time.Duration

	// The running search of one pick: the best feasible task, its slack,
	// and the key above which a subtree is pruned.
	best      *Task
	bestSlack float64
	cut       time.Duration
}

// planariaGuard is the relative guard of the feasible walk. A task's
// reference slack fl(fl(ms(D-now)) - fl(ms(rem))) takes three roundings,
// each within 2^-53 of its result (durations convert to float64 exactly
// below 2^53 ns, ~104 days), so it lies within 2^-52*(|s| + r) of the real
// slack s = ms(k-now), where r = ms(rem). For a task t whose k exceeds the
// best task b's by Δ ns, t's float slack is therefore strictly above b's
// once Δ exceeds ~4.5e-16*(|k_b - now| + remMax) ns. The guard, 1e-9 of
// that sum, covers the rounding millions of times over and still amounts
// to ~1 ns at second-scale slacks, so the walk visits little beyond the
// tasks that tie the best k.
const planariaGuard = 1e-9

// NewPlanaria returns the Planaria baseline.
func NewPlanaria(est *Estimator) *Planaria {
	p := &Planaria{est: est}
	p.feasible.Init(bySlackKey)
	p.hopeless.Init(byProfiledRemaining)
	return p
}

// slackKey is the feasible-heap key Deadline - AvgRemaining(NextLayer),
// read from the profile attached at arrival.
func slackKey(t *Task) time.Duration {
	return t.Deadline() - t.Attachment.(*trace.Stats).AvgRemaining(t.NextLayer)
}

// bySlackKey orders the feasible heap by (slackKey, ID).
func bySlackKey(a, b *Task) bool {
	ka, kb := slackKey(a), slackKey(b)
	return ka < kb || (ka == kb && a.ID < b.ID)
}

// planariaSlack is the reference slack at now, in milliseconds, with the
// profile read from the arrival-time attachment.
func planariaSlack(t *Task, now time.Duration) float64 {
	return ms(t.Deadline()-now) - ms(t.Attachment.(*trace.Stats).AvgRemaining(t.NextLayer))
}

// planariaHopeless reports whether the reference slack at now is
// negative. Conversion and division round monotonically, so a key at or
// above now already makes the float slack non-negative, and the float
// slack is computed only for a key below now.
func planariaHopeless(t *Task, now time.Duration) bool {
	return slackKey(t) < now && planariaSlack(t, now) < 0
}

// Name implements Scheduler.
func (*Planaria) Name() string { return "Planaria" }

// OnArrival implements Scheduler.
func (p *Planaria) OnArrival(t *Task, now time.Duration) {
	st := p.est.stats(t)
	t.Attachment = st
	if r := st.AvgRemaining(0); r > p.remMax {
		p.remMax = r
	}
	p.place(t, now)
}

// OnLayerComplete implements Scheduler: the executed task's key moved and
// its slack may have risen, so it is re-classified; a completed task
// leaves.
func (p *Planaria) OnLayerComplete(t *Task, _ int, _ float64, now time.Duration) {
	if t.Done {
		p.OnExtract(t, now)
		return
	}
	p.place(t, now)
}

// place files a task in the heap its reference slack at now selects.
func (p *Planaria) place(t *Task, now time.Duration) {
	if planariaHopeless(t, now) {
		reheap(t, &p.hopeless, &p.feasible)
	} else {
		reheap(t, &p.feasible, &p.hopeless)
	}
}

// OnExtract implements TaskExtractor: release the heap slot and the
// attached profile.
func (p *Planaria) OnExtract(t *Task, _ time.Duration) {
	if !p.feasible.Remove(t) {
		p.hopeless.Remove(t)
	}
	t.Attachment = nil
}

// PickNext implements Scheduler: least slack first among feasible tasks;
// if none is feasible, shortest remaining among the hopeless (the
// reference two-pass scan).
func (p *Planaria) PickNext(ready []*Task, now time.Duration) *Task {
	var best *Task
	var bestSlack float64
	for _, t := range ready {
		slack := ms(t.Deadline()-now) - ms(p.est.Remaining(t))
		if slack < 0 {
			continue
		}
		if best == nil || slack < bestSlack || (slack == bestSlack && t.ID < best.ID) {
			best, bestSlack = t, slack
		}
	}
	if best != nil {
		return best
	}
	// All hopeless: drain shortest-first to limit the damage.
	best = ready[0]
	bestRem := p.est.Remaining(best)
	for _, t := range ready[1:] {
		if rem := p.est.Remaining(t); rem < bestRem || (rem == bestRem && t.ID < best.ID) {
			best, bestRem = t, rem
		}
	}
	return best
}

// PickNextIncremental implements IncrementalScheduler: the reference pick
// by pruned walk over the two heaps (see the field doc on feasible).
func (p *Planaria) PickNextIncremental(q *ReadyQueue, now time.Duration) *Task {
	if q.Len() == 1 {
		return q.Tasks()[0]
	}
	for t := p.feasible.Min(); t != nil && planariaHopeless(t, now); t = p.feasible.Min() {
		p.feasible.Remove(t)
		p.hopeless.Push(t)
	}
	if p.feasible.Len() == 0 {
		return p.hopeless.Min()
	}
	p.visit(0, now)
	best := p.best
	p.best = nil
	return best
}

// visit scores feasible-heap node i and recurses into the subtrees the
// guarded key bound cannot rule out. The root is visited first and is
// feasible, so best is set before any pruning test.
func (p *Planaria) visit(i int, now time.Duration) {
	t := p.feasible.At(i)
	k := slackKey(t)
	if p.best != nil && k > p.cut {
		return
	}
	// A negative slack below the root happens only once float64 has lost
	// the nanoseconds separating k from now; such a task is no candidate
	// and leaves the heap when it becomes the root.
	if s := planariaSlack(t, now); s >= 0 &&
		(p.best == nil || s < p.bestSlack || (s == p.bestSlack && t.ID < p.best.ID)) {
		p.best, p.bestSlack = t, s
		p.cut = k + time.Duration(planariaGuard*(math.Abs(float64(k-now))+float64(p.remMax)))
	}
	if l := 2*i + 1; l < p.feasible.Len() {
		p.visit(l, now)
		if l+1 < p.feasible.Len() {
			p.visit(l+1, now)
		}
	}
}

// reheap files t in h: it repairs t's position when h already holds it
// and otherwise moves it out of other, the one other heap that can.
func reheap(t *Task, h, other *TaskHeap) {
	if !h.Fix(t) {
		other.Remove(t)
		h.Push(t)
	}
}

// ms converts a duration to float64 milliseconds, the score unit used
// throughout the schedulers (matching the FP16 hardware's operand scale).
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var (
	_ IncrementalScheduler = (*FCFS)(nil)
	_ IncrementalScheduler = (*SJF)(nil)
	_ IncrementalScheduler = (*Planaria)(nil)

	_ TaskExtractor = (*FCFS)(nil)
	_ TaskExtractor = (*SJF)(nil)
	_ TaskExtractor = (*Planaria)(nil)
)
