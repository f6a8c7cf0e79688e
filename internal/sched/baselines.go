package sched

import (
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
		if _, ok := e.byModel[k.Model]; !ok {
			e.byModel[k.Model] = set.MergedByModel(k.Model)
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
	st, ok := e.byModel[t.Key.Model]
	if !ok {
		panic("sched: no profiling stats for model " + t.Key.Model)
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
}

// NewPlanaria returns the Planaria baseline.
func NewPlanaria(est *Estimator) *Planaria { return &Planaria{est: est} }

// Name implements Scheduler.
func (*Planaria) Name() string { return "Planaria" }

// OnArrival implements Scheduler.
func (p *Planaria) OnArrival(t *Task, _ time.Duration) { t.Attachment = p.est.stats(t) }

// OnLayerComplete implements Scheduler.
func (*Planaria) OnLayerComplete(t *Task, _ int, _ float64, _ time.Duration) {
	if t.Done {
		t.Attachment = nil
	}
}

// OnExtract implements TaskExtractor: only the attachment holds state.
func (*Planaria) OnExtract(t *Task, _ time.Duration) { t.Attachment = nil }

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

// PickNextIncremental implements IncrementalScheduler: one pass over the
// queue tracking the feasible and hopeless minima simultaneously, with
// the profile read from the arrival-time attachment.
func (p *Planaria) PickNextIncremental(q *ReadyQueue, now time.Duration) *Task {
	var feasible, hopeless *Task
	var bestSlack float64
	var bestRem time.Duration
	for _, t := range q.Tasks() {
		rem := estStats(p.est, t).AvgRemaining(t.NextLayer)
		slack := ms(t.Deadline()-now) - ms(rem)
		if slack < 0 {
			if hopeless == nil || rem < bestRem || (rem == bestRem && t.ID < hopeless.ID) {
				hopeless, bestRem = t, rem
			}
			continue
		}
		if feasible == nil || slack < bestSlack || (slack == bestSlack && t.ID < feasible.ID) {
			feasible, bestSlack = t, slack
		}
	}
	if feasible != nil {
		return feasible
	}
	return hopeless
}

// Oracle is the paper's upper-bound scheduler (§6.4): it scores tasks with
// the same balanced objective as Dysta's dynamic level but substitutes the
// ground-truth remaining latency for the prediction, so it bounds what any
// latency predictor could achieve.
type Oracle struct {
	// Eta balances the remaining-time (ANTT) and slack (violation)
	// objectives exactly as in Dysta's dynamic score.
	Eta float64
	// DemotionMS is added to the score of tasks that can no longer meet
	// their deadline, mirroring Dysta's hopeless-task demotion.
	DemotionMS float64
}

// NewOracle returns the Oracle scheduler with the given eta and the
// default demotion.
func NewOracle(eta float64) *Oracle { return &Oracle{Eta: eta, DemotionMS: 1000} }

// Name implements Scheduler.
func (*Oracle) Name() string { return "Oracle" }

// OnArrival implements Scheduler.
func (*Oracle) OnArrival(*Task, time.Duration) {}

// OnLayerComplete implements Scheduler.
func (*Oracle) OnLayerComplete(*Task, int, float64, time.Duration) {}

// OnExtract implements TaskExtractor: Oracle keeps no per-task state.
func (*Oracle) OnExtract(*Task, time.Duration) {}

// PickNext implements Scheduler (the reference scan).
func (o *Oracle) PickNext(ready []*Task, now time.Duration) *Task {
	best := ready[0]
	bestScore := o.score(best, now)
	for _, t := range ready[1:] {
		if sc := o.score(t, now); sc < bestScore || (sc == bestScore && t.ID < best.ID) {
			best, bestScore = t, sc
		}
	}
	return best
}

// PickNextIncremental implements IncrementalScheduler. Oracle's score is
// already O(1) per task (the engine maintains TrueRemaining as a running
// suffix), so the incremental path is the same scan over the queue view.
func (o *Oracle) PickNextIncremental(q *ReadyQueue, now time.Duration) *Task {
	return o.PickNext(q.Tasks(), now)
}

// score mirrors Dysta's dynamic score (Alg. 2 line 11) with perfect
// latency information, in milliseconds. Negative slack is clamped to zero
// so already-hopeless tasks compete on remaining time instead of hijacking
// the queue (the EDF overload pathology).
func (o *Oracle) score(t *Task, now time.Duration) float64 {
	remain := ms(t.TrueRemaining())
	slack := ms(t.Deadline()-now) - remain
	demotion := 0.0
	if slack < 0 {
		slack = 0
		demotion = o.DemotionMS
	}
	return remain + o.Eta*slack + demotion
}

// ms converts a duration to float64 milliseconds, the score unit used
// throughout the schedulers (matching the FP16 hardware's operand scale).
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var (
	_ IncrementalScheduler = (*FCFS)(nil)
	_ IncrementalScheduler = (*SJF)(nil)
	_ IncrementalScheduler = (*Planaria)(nil)
	_ IncrementalScheduler = (*Oracle)(nil)

	_ TaskExtractor = (*FCFS)(nil)
	_ TaskExtractor = (*SJF)(nil)
	_ TaskExtractor = (*Planaria)(nil)
	_ TaskExtractor = (*Oracle)(nil)
)
