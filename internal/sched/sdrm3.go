package sched

import (
	"time"

	"sparsedysta/internal/trace"
)

// SDRM3 implements the MapScore scheduler of Kim et al. (ASPLOS 2024),
// adapted per paper §6.1: MapScore is the weighted sum of Urgency and
// Fairness with the hardware-preference term Pref pinned to 1 (a single
// accelerator) and Alpha tuned following SDRM3's own methodology.
//
// Urgency grows as a task's deadline approaches relative to its estimated
// remaining work; Fairness grows with the service deficit a task has
// accumulated relative to uniform progress. The highest MapScore runs.
// Because Fairness keeps rotating service toward the most-starved task,
// the schedule approaches layer-granularity processor sharing under load —
// which inflates both ANTT and violations exactly as the paper observes
// (Table 5: SDRM3 trails even FCFS on these single-accelerator workloads).
type SDRM3 struct {
	est *Estimator
	// Alpha weights Urgency against Fairness.
	Alpha float64

	// MapScore moves with the clock for every task, so no single
	// time-invariant key orders it; but within one ISOLATION CLASS —
	// tasks sharing the profiled iso = AvgTotal, i.e. one class per
	// model — fairness at any instant is ordered (in real arithmetic) by
	// the integer k = Arrival + ExecTime: fairness = (ms(now-Arrival) -
	// ms(ExecTime))/iso, and for a shared now and iso the numerators
	// order by -(Arrival+ExecTime). Each class therefore keeps a TaskHeap
	// min-ordered by (k, ID), whose root is the class's fairness maximum.
	// The pick DFS-walks each class heap under the upper bound
	//     score <= Alpha + ms(now-k)/iso + guard,
	// monotone decreasing in k: Urgency is clamped to [0,1] so the Alpha
	// term is at most Alpha (float multiplication by a value <= 1 never
	// rounds above Alpha), and the guard absorbs the float rounding by
	// which the two ms() divisions can deviate from the real-arithmetic
	// ordering — it overestimates the true error (a few ulps) by orders
	// of magnitude while staying far below real score gaps, so pruning
	// loses little. A subtree is skipped only when its bound is STRICTLY
	// below the best exact score found, so a potential tie (which the
	// min-ID rule would resolve) is never pruned: the pick is
	// bit-identical to the reference scan. Visited nodes are re-scored
	// with the exact mapScore. Classes are few (one per model), so they
	// live in a slice in creation order — deterministic, since arrivals
	// are — and are found by a linear scan.
	classes []*sdrmClass

	// best and bestScore are the running argmax of a pick's DFS.
	best      *Task
	bestScore float64
}

// sdrmClass is one isolation class: the ready tasks of one model (one
// profiled AvgTotal), heap-ordered by (Arrival+ExecTime, ID) ascending —
// fairness descending.
type sdrmClass struct {
	total time.Duration // the shared AvgTotal
	iso   float64       // ms(total), the fairness denominator
	h     TaskHeap
}

// sdrmGuard over-covers the float rounding between the real-arithmetic
// class ordering and the rounded mapScore: the true deviation is a few
// ulps of the fairness magnitude (~1e-16 relative), while real score
// gaps between tasks are set by inter-arrival spacing over iso
// (~1e-1). 1e-6 sits safely between the two for any simulation length
// this codebase reaches (fairness stays far below 1e10).
const sdrmGuard = 1e-6

// NewSDRM3 returns the SDRM3 baseline with the tuned default alpha.
func NewSDRM3(est *Estimator) *SDRM3 { return &SDRM3{est: est, Alpha: 0.5} }

// Name implements Scheduler.
func (*SDRM3) Name() string { return "SDRM3" }

// class returns the isolation class of a profile, creating it on first
// use when create is set (nil otherwise).
func (s *SDRM3) class(st *trace.Stats, create bool) *sdrmClass {
	for _, c := range s.classes {
		if c.total == st.AvgTotal {
			return c
		}
	}
	if !create {
		return nil
	}
	c := &sdrmClass{total: st.AvgTotal, iso: ms(st.AvgTotal)}
	c.h.Init(byServiceClock)
	s.classes = append(s.classes, c)
	return c
}

// byServiceClock orders a class heap by (Arrival+ExecTime, ID).
func byServiceClock(a, b *Task) bool {
	ka, kb := a.Arrival+a.ExecTime, b.Arrival+b.ExecTime
	return ka < kb || (ka == kb && a.ID < b.ID)
}

// OnArrival implements Scheduler: the pattern-blind profile is attached
// once, so per-decision scoring needs no model lookup, and the task
// enters its isolation class's heap.
func (s *SDRM3) OnArrival(t *Task, _ time.Duration) {
	st := s.est.stats(t)
	t.Attachment = st
	s.class(st, true).h.Push(t)
}

// OnLayerComplete implements Scheduler: the executed task's ExecTime
// grew, so its class-heap key moved; a completed task leaves its class.
func (s *SDRM3) OnLayerComplete(t *Task, _ int, _ float64, _ time.Duration) {
	if t.Done {
		s.OnExtract(t, 0)
		return
	}
	if st, ok := t.Attachment.(*trace.Stats); ok {
		s.class(st, false).h.Fix(t)
	}
}

// OnExtract implements TaskExtractor: release the class-heap slot and
// the attached profile.
func (s *SDRM3) OnExtract(t *Task, _ time.Duration) {
	if st, ok := t.Attachment.(*trace.Stats); ok {
		s.class(st, false).h.Remove(t)
	}
	t.Attachment = nil
}

// PickNext implements Scheduler: maximum MapScore (the reference scan).
func (s *SDRM3) PickNext(ready []*Task, now time.Duration) *Task {
	best := ready[0]
	bestScore := s.mapScore(best, now)
	for _, t := range ready[1:] {
		if sc := s.mapScore(t, now); sc > bestScore || (sc == bestScore && t.ID < best.ID) {
			best, bestScore = t, sc
		}
	}
	return best
}

// PickNextIncremental implements IncrementalScheduler: the exact
// reference argmax via bound-pruned DFS over each class heap (see the
// field doc on classes for the bound derivation).
func (s *SDRM3) PickNextIncremental(_ *ReadyQueue, now time.Duration) *Task {
	s.best = nil
	for _, c := range s.classes {
		if c.h.Len() > 0 {
			s.visit(c, 0, now)
		}
	}
	best := s.best
	s.best = nil
	return best
}

// visit scores heap node i of class c and recurses into the children
// whose subtree bound does not fall strictly below the best score.
func (s *SDRM3) visit(c *sdrmClass, i int, now time.Duration) {
	t := c.h.At(i)
	if s.best != nil {
		ub := s.Alpha + sdrmGuard
		if c.iso > 0 {
			ub += ms(now-(t.Arrival+t.ExecTime)) / c.iso
		}
		if ub < s.bestScore {
			return
		}
	}
	if sc := s.mapScore(t, now); s.best == nil || sc > s.bestScore || (sc == s.bestScore && t.ID < s.best.ID) {
		s.best, s.bestScore = t, sc
	}
	if l := 2*i + 1; l < c.h.Len() {
		s.visit(c, l, now)
		if l+1 < c.h.Len() {
			s.visit(c, l+1, now)
		}
	}
}

// mapScore = Alpha*Urgency + Fairness (Pref = 1 folded in).
func (s *SDRM3) mapScore(t *Task, now time.Duration) float64 {
	st := estStats(s.est, t)
	remain := ms(st.AvgRemaining(t.NextLayer))
	slack := ms(t.Deadline() - now)
	urgency := 0.0
	if slack > 0 {
		urgency = remain / slack
	} else {
		// Past-deadline tasks are maximally urgent.
		urgency = 1
	}
	if urgency > 1 {
		urgency = 1
	}

	iso := ms(st.AvgTotal)
	fairness := 0.0
	if iso > 0 {
		// Service deficit: how far the task lags uniform progress.
		expected := ms(now - t.Arrival)
		received := ms(t.ExecTime)
		fairness = (expected - received) / iso
	}
	return s.Alpha*urgency + fairness
}

var (
	_ IncrementalScheduler = (*SDRM3)(nil)
	_ TaskExtractor        = (*SDRM3)(nil)
)
