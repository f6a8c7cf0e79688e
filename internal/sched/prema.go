package sched

import (
	"time"

	"sparsedysta/internal/trace"
)

// PREMA implements the predictive multi-task scheduling algorithm of Choi
// & Rhu (HPCA 2020), adapted per paper §6.1: the candidate condition is
// Token_i >= Threshold (the paper's modification, so scheduling works from
// the very first decision), and execution-time estimates come from the
// offline profiling LUT, sparsity-blind as in the original.
//
// PREMA's mechanism: each task carries a static priority; while waiting it
// accumulates tokens proportional to priority and waiting time, and spends
// them when dispatched. Tasks whose tokens reach the threshold form the
// candidate set (all tasks, if none qualify); among candidates the task
// with the shortest estimated remaining time runs — so PREMA behaves like
// SJF with token-based starvation protection, matching its near-SJF ANTT
// and violation numbers in the paper's Table 5.
//
// Per-task bookkeeping (priority, tokens, accrual clock, profile) lives in
// a task attachment set at arrival, so every scheduling decision is free
// of map lookups.
//
// The production pick (PickNextIncremental) is exact by construction, not
// by tolerance. Tokens only grow while a task waits, and only a dispatch
// resets them, so once a task's tokens reach the threshold it stays a
// candidate until it is dispatched, and the value of its tokens is never
// read again. The pick therefore accrues tokens eagerly, with the
// reference's float operations in the reference's order, but only over
// the UNCROSSED tasks (tokens below the threshold); a task that crosses
// moves to the crossed heap and stops accruing. Both heaps are keyed by
// (profiled remaining, ID): the crossed minimum is the candidate argmin
// (weighed against the running task, a candidate by fiat), and the
// uncrossed minimum is the all-tasks argmin the reference falls back to
// when no candidate exists, since the crossed set is then empty. A pick
// costs O(uncrossed + log n) instead of O(queue); under load most waiting
// tasks have crossed.
type PREMA struct {
	est *Estimator
	// Threshold is the token level that makes a task a candidate.
	Threshold float64

	lastPick *Task

	// uncrossed and crossed partition the ready tasks by candidacy,
	// each keyed (remaining, ID); due is the pick's reusable scratch
	// list of tasks crossing at this decision.
	uncrossed, crossed TaskHeap
	due                []*Task

	// free recycles the states of departed tasks (see forget).
	free FreeList[premaState, *premaState]
}

// premaState is PREMA's per-task attachment.
type premaState struct {
	prio     float64
	tokens   float64
	lastSeen time.Duration
	st       *trace.Stats
	// rem caches st.AvgRemaining(NextLayer), the heap key; it changes
	// only when the task executes a layer.
	rem time.Duration
	Link[premaState]
}

// NewPREMA returns the PREMA baseline with the default threshold.
func NewPREMA(est *Estimator) *PREMA {
	p := &PREMA{est: est, Threshold: 64}
	p.uncrossed.Init(byCachedRemaining)
	p.crossed.Init(byCachedRemaining)
	return p
}

// byCachedRemaining orders PREMA's heaps by (remaining, ID).
func byCachedRemaining(a, b *Task) bool {
	ra, rb := a.Attachment.(*premaState).rem, b.Attachment.(*premaState).rem
	return ra < rb || (ra == rb && a.ID < b.ID)
}

// Name implements Scheduler.
func (*PREMA) Name() string { return "PREMA" }

// state returns the task's attachment, creating a zero state for tasks
// the scheduler never saw arrive (mirroring the zero values the map-based
// bookkeeping used to yield).
func (p *PREMA) state(t *Task) *premaState {
	if s, ok := t.Attachment.(*premaState); ok {
		return s
	}
	st := p.est.stats(t)
	return p.attach(t, premaState{st: st, rem: st.AvgRemaining(t.NextLayer)})
}

// attach sets t's attachment to a state from the free list holding v.
// v overwrites every field, its nil link the one Get left, so a
// recycled state equals a fresh one.
func (p *PREMA) attach(t *Task, v premaState) *premaState {
	s := p.free.Get()
	*s = v
	t.Attachment = s
	return s
}

// forget releases a departing task's heap slot (whichever heap holds it)
// and puts its state on the free list: the task was its only holder.
func (p *PREMA) forget(t *Task) {
	p.uncrossed.Remove(t)
	p.crossed.Remove(t)
	if s, ok := t.Attachment.(*premaState); ok {
		p.free.Put(s)
	}
	t.Attachment = nil
}

// OnArrival implements Scheduler: assign the task's static priority.
// PREMA assigns priorities by task criticality; with uniform SLO
// multipliers, criticality is driven by job length — short jobs receive
// high priority so they are not starved by long-running tenants.
func (p *PREMA) OnArrival(t *Task, now time.Duration) {
	st := p.est.stats(t)
	p.attach(t, premaState{
		prio:     priorityForLatency(st.AvgTotal),
		lastSeen: now,
		st:       st,
		rem:      st.AvgRemaining(t.NextLayer),
	})
	// Every task starts uncrossed; the next pick's accrual promotes it
	// if zero tokens already meet the threshold.
	p.uncrossed.Push(t)
}

// priorityForLatency buckets estimated isolated latency into PREMA's
// discrete priority levels (shorter job -> higher priority).
func priorityForLatency(iso time.Duration) float64 {
	switch {
	case iso < 20*time.Millisecond:
		return 8
	case iso < 60*time.Millisecond:
		return 4
	case iso < 200*time.Millisecond:
		return 2
	default:
		return 1
	}
}

// OnLayerComplete implements Scheduler: the task that just executed was
// not waiting, so its accrual clock resets; a completed task's bookkeeping
// is released.
func (p *PREMA) OnLayerComplete(t *Task, _ int, _ float64, now time.Duration) {
	if t.Done {
		p.forget(t)
		if p.lastPick == t {
			// A completed task is never in the ready queue, so every
			// lastPick comparison against ready tasks already fails —
			// clearing it is behaviorally free, and mandatory: under
			// bounded capture the engine recycles completed tasks, and a
			// dangling lastPick would spuriously grant running-task
			// candidacy to whichever new request reuses the allocation.
			p.lastPick = nil
		}
		return
	}
	s := p.state(t)
	s.lastSeen = now
	// The remaining estimate shrank: repair the heap that holds the task.
	s.rem = s.st.AvgRemaining(t.NextLayer)
	p.uncrossed.Fix(t)
	p.crossed.Fix(t)
}

// OnExtract implements TaskExtractor: the migrated request forfeits its
// accumulated tokens (starvation credit is engine-local seniority — part
// of the price of moving), and a dangling last-pick reference is dropped
// so the departed task cannot shadow the next dispatch decision.
func (p *PREMA) OnExtract(t *Task, _ time.Duration) {
	if p.lastPick == t {
		p.lastPick = nil
	}
	p.forget(t)
}

// accrue credits waiting-time tokens to every ready task since the last
// decision; the running task accrues nothing while executing (it was not
// waiting).
func (p *PREMA) accrue(ready []*Task, now time.Duration) {
	for _, t := range ready {
		p.state(t).accrue(now)
	}
}

// accrue credits one task's waiting time since its accrual clock: the one
// token update both picks share, so they round identically.
func (s *premaState) accrue(now time.Duration) {
	if wait := ms(now - s.lastSeen); wait > 0 {
		s.tokens += s.prio * wait
	}
	s.lastSeen = now
}

// dispatch finalizes a pick: a fresh dispatch spends the task's
// accumulated tokens.
func (p *PREMA) dispatch(t *Task) *Task {
	if t != p.lastPick {
		p.state(t).tokens = 0
		p.lastPick = t
	}
	return t
}

// PickNext implements Scheduler (the reference implementation). The
// running task stays a candidate (it occupies the NPU until preempted);
// tokens are spent when a *different* task is dispatched, matching
// PREMA's dispatch-slot semantics rather than per-layer churn.
func (p *PREMA) PickNext(ready []*Task, now time.Duration) *Task {
	p.accrue(ready, now)

	candidates := make([]*Task, 0, len(ready))
	for _, t := range ready {
		if p.state(t).tokens >= p.Threshold || t == p.lastPick {
			candidates = append(candidates, t)
		}
	}
	if len(candidates) == 0 {
		candidates = ready
	}

	best := candidates[0]
	bestRem := p.est.Remaining(best)
	for _, t := range candidates[1:] {
		rem := p.est.Remaining(t)
		if rem < bestRem || (rem == bestRem && t.ID < best.ID) {
			best, bestRem = t, rem
		}
	}
	return p.dispatch(best)
}

// PickNextIncremental implements IncrementalScheduler: the reference
// pick over the crossed/uncrossed partition (see the type doc for why it
// is exact).
func (p *PREMA) PickNextIncremental(q *ReadyQueue, now time.Duration) *Task {
	due := p.due[:0]
	for i := 0; i < p.uncrossed.Len(); i++ {
		t := p.uncrossed.At(i)
		s := t.Attachment.(*premaState)
		s.accrue(now)
		if s.tokens >= p.Threshold {
			due = append(due, t)
		}
	}
	for _, t := range due {
		p.uncrossed.Remove(t)
		p.crossed.Push(t)
	}
	clear(due)
	p.due = due[:0]

	best := p.crossed.Min()
	// The running task is a candidate by fiat (it occupies the NPU until
	// preempted), whatever its token balance.
	if lp := p.lastPick; lp != nil && q.Contains(lp) && (best == nil || byCachedRemaining(lp, best)) {
		best = lp
	}
	if best == nil {
		best = p.uncrossed.Min()
	}
	if best != p.lastPick {
		// dispatch resets the tokens below; the accrual clock is the one
		// the reference's accrue would have advanced, and a spent task
		// is uncrossed again (the next pick re-promotes it if zero tokens
		// meet the threshold).
		best.Attachment.(*premaState).lastSeen = now
		if p.crossed.Remove(best) {
			p.uncrossed.Push(best)
		}
	}
	return p.dispatch(best)
}

var (
	_ IncrementalScheduler = (*PREMA)(nil)
	_ TaskExtractor        = (*PREMA)(nil)
)
