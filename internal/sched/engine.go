package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"sparsedysta/internal/stats"
	"sparsedysta/internal/workload"
)

// Options tunes the engine.
type Options struct {
	// PreemptionOverhead is charged whenever the engine switches away
	// from the previously running task at a layer boundary. The paper's
	// preemptive time-multiplexing model treats this as negligible;
	// nonzero values support overhead-sensitivity ablations.
	PreemptionOverhead time.Duration
	// RecordTimeline captures the execution schedule in Result.Timeline
	// (off by default: long runs record many spans).
	RecordTimeline bool
	// RecordTasks captures per-request outcomes in Result.Tasks.
	RecordTasks bool
	// ReferencePick forces the reference Scheduler.PickNext path even for
	// schedulers implementing IncrementalScheduler. The equivalence tests
	// use it to prove both paths produce bit-identical schedules.
	ReferencePick bool
	// ScalablePick used to select the heap-backed picks.
	//
	// Deprecated: the heap picks are the IncrementalScheduler path now;
	// the engine ignores this field.
	ScalablePick bool
	// BoundedCapture drops every O(requests) capture structure — the
	// completed-task slice behind Tasks, the per-request latency and
	// turnaround slices — in favor of streaming aggregates, so engine
	// memory is independent of run length. ANTT, MeanLatency, violation
	// and throughput accounting, Makespan and PerModel stay bit-identical
	// to full capture (ordered float sums over the same completion
	// sequence); the latency percentiles switch to a log-bucketed
	// histogram (upward bias of at most one bucket width, ~3%), and
	// RecordTimeline/RecordTasks are forced off. Exemplars provides a
	// bounded substitute for Tasks.
	BoundedCapture bool
	// Exemplars is the reservoir size of the uniform per-request outcome
	// sample kept under BoundedCapture (0 = none); ExemplarSeed drives
	// the reservoir's private deterministic rng stream.
	Exemplars    int
	ExemplarSeed uint64
	// Observer, when non-nil, is called once per completed request, at
	// its completion instant, with the final outcome. The cluster layer
	// uses it to aggregate run-wide bounded metrics in global event
	// order without any engine retaining per-request state. It must not
	// call back into the engine.
	Observer func(TaskOutcome)
	// LatencyScale models a faster or slower accelerator of the same
	// architecture: every executed layer latency (and the preemption
	// overhead) is multiplied by this factor in the engine's cost model.
	// 0 (and 1) mean reference speed, 2 a half-speed device, 0.5 a
	// double-speed one. Task ground truth (TrueIsolated/TrueRemaining)
	// stays in reference units, so NTT and SLOs keep measuring against
	// the service contract of the reference hardware, independent of
	// which device serves the request.
	LatencyScale float64
	// BacklogEstimator, when non-nil, arms O(1) incremental backlog
	// accounting: the engine maintains a running sum of the estimate over
	// every outstanding task, updated at injection, adoption, extraction,
	// crash, and after each executed layer, and serves it through
	// Backlog(). The estimator must be a pure function of (t.Key,
	// t.NextLayer) — the same contract EstimatedBacklog's load argument
	// has — so the running integer sum is bit-identical to the O(n) scan
	// at every instant. The cluster layer binds the run's shared load
	// estimate here so SignalBoard refreshes and rebalance rounds stop
	// walking queues.
	BacklogEstimator func(*Task) time.Duration
	// BacklogCurve optionally accelerates the accounting: curve(t), when
	// non-nil, must satisfy curve(t)[l] == BacklogEstimator(t') for every
	// t' equal to t at NextLayer l (indices past len(curve)-1 mean 0), so
	// the engine resolves the curve once per enrollment and re-estimates
	// after each executed layer by slice index instead of an estimator
	// call. A nil curve for a given task falls back to per-event
	// estimator calls; a curve that disagrees with the estimator at
	// enrollment fails the run (the cross-check that keeps the O(1) sum
	// honest). Ignored without BacklogEstimator.
	BacklogCurve func(*Task) []time.Duration
}

// Engine is one steppable simulated accelerator: a discrete-event,
// layer-granularity preemptive scheduling engine whose clock advances one
// scheduling decision at a time. Callers inject requests (Inject), advance
// the simulation event by event (Step), and finalize the metrics (Finish).
// Run drives a single engine to completion; internal/cluster interleaves
// many engines' events on one virtual clock.
//
// The contract that makes multi-engine composition deterministic:
//
//   - Requests must be injected before the engine's clock passes their
//     arrival (Step never rewinds). The engine delivers an injected
//     request to its scheduler at the first scheduling point at or after
//     the request's arrival, exactly as Run always has.
//   - Step executes exactly one layer of the picked task (plus any idle
//     jump to the next pending arrival) and returns the engine clock
//     after it, which is the time of the next scheduling decision.
//   - NextEvent never mutates state, so an orchestrator can order N
//     engines' events globally before committing any of them.
type Engine struct {
	s    Scheduler
	inc  IncrementalScheduler
	opts Options
	// scale is the effective latency scale (Options.LatencyScale, 0 → 1).
	scale float64

	// est/curve are Options.BacklogEstimator/BacklogCurve; backlog is the
	// running estimate sum over outstanding tasks they maintain (always
	// equal to EstimatedBacklog(est) — the invariant tests pin it).
	est     func(*Task) time.Duration
	curve   func(*Task) []time.Duration
	backlog time.Duration

	now     time.Duration
	ready   ReadyQueue
	pending pendingQueue

	injected     int
	firstArrival time.Duration
	last         *Task
	preempts     int
	busy         time.Duration

	done       []*Task
	turnRatios []float64
	latencies  []float64
	timeline   *Timeline
	finished   bool

	// Bounded-capture aggregates (Options.BoundedCapture): the streaming
	// replacements for the slices above. nDone is maintained in both
	// modes (== len(done) under full capture).
	bounded        bool
	nDone          int
	turnSum        float64
	latSum         float64
	violations     int
	lastDone       time.Duration
	doneAny        bool
	doneMinArrival time.Duration
	latHist        *stats.DurationHist
	perModel       map[string]ModelMetrics
	exemplars      *stats.Reservoir[TaskOutcome]
}

// NewEngine returns an idle engine at virtual time zero driving the
// scheduler. Exactly one scheduler instance must own each engine:
// schedulers carry per-run state (heaps, per-task attachments).
func NewEngine(s Scheduler, opts Options) *Engine {
	e := &Engine{s: s, opts: opts, scale: opts.LatencyScale}
	if e.scale <= 0 {
		e.scale = 1
	}
	e.est = opts.BacklogEstimator
	if e.est != nil {
		e.curve = opts.BacklogCurve
	}
	if inc, ok := s.(IncrementalScheduler); ok && !opts.ReferencePick {
		e.inc = inc
	}
	if opts.BoundedCapture {
		e.bounded = true
		// Full capture is the thing bounded mode exists to avoid.
		e.opts.RecordTimeline = false
		e.opts.RecordTasks = false
		e.latHist = &stats.DurationHist{}
		e.perModel = map[string]ModelMetrics{}
		if opts.Exemplars > 0 {
			e.exemplars = stats.NewReservoir[TaskOutcome](opts.Exemplars, opts.ExemplarSeed)
		}
	}
	if e.opts.RecordTimeline {
		e.timeline = &Timeline{}
	}
	return e
}

// Inject makes a request known to the engine. now is the caller's virtual
// time of the injection; the request becomes visible to the scheduler at
// the first scheduling point at or after max(r.Arrival, now), so a late
// injection (a dispatcher that held the request back) delays delivery but
// never rewrites history. Injecting after Finish is an error.
func (e *Engine) Inject(r *workload.Request, now time.Duration) error {
	if e.finished {
		return fmt.Errorf("sched: Inject after Finish")
	}
	t := newTask(r)
	eff := t.Arrival
	if now > eff {
		eff = now
	}
	if err := e.accountAdd(t); err != nil {
		return err
	}
	if e.injected == 0 || t.Arrival < e.firstArrival {
		e.firstArrival = t.Arrival
	}
	e.injected++
	e.pending.push(t, eff)
	return nil
}

// Extract withdraws a queued-but-never-started request from the engine by
// task ID, for migration to another engine (cluster work stealing). The
// returned task is detached: it sits in no queue, the scheduler holds no
// state for it, and its ground-truth bookkeeping (TrueIsolated,
// TrueRemaining — untouched, since no layer executed) travels with it, so
// a subsequent Adopt on any engine resumes exact accounting.
//
// Only requests that have executed no layer are extractable: a started
// task's activations live on this accelerator and its scheduler state
// (predictor observations, accrued tokens) is not transferable. Extracting
// a task the scheduler has already seen arrive additionally requires the
// scheduler to implement TaskExtractor; extraction from the undelivered
// pending set needs no scheduler cooperation. Extract fails with an error
// — never silently — on an unknown ID, a started task, or a
// non-extracting scheduler.
func (e *Engine) Extract(id int) (*Task, error) {
	if e.finished {
		return nil, fmt.Errorf("sched: Extract after Finish")
	}
	// Undelivered requests first: the scheduler never saw them.
	if t, ok := e.pending.removeByID(id); ok {
		e.accountRemove(t)
		e.injected--
		e.forgetArrival(t)
		return t, nil
	}
	for _, t := range e.ready.Tasks() {
		if t.ID != id {
			continue
		}
		if t.NextLayer > 0 {
			return nil, fmt.Errorf("sched: Extract of started task %d (%d of %d layers executed)",
				id, t.NextLayer, t.NumLayers())
		}
		x, ok := e.s.(TaskExtractor)
		if !ok {
			return nil, fmt.Errorf("sched: scheduler %s does not implement TaskExtractor", e.s.Name())
		}
		x.OnExtract(t, e.now)
		e.ready.remove(t)
		e.accountRemove(t)
		e.injected--
		e.forgetArrival(t)
		return t, nil
	}
	return nil, fmt.Errorf("sched: Extract: no queued request %d", id)
}

// Crash force-removes every outstanding request from the engine at a
// failure instant, the sched-layer surface of cluster fault injection.
// Queued-but-never-started requests (delivered or still pending) come
// back intact in `queued`, ready for Adopt on a surviving engine exactly
// like a migration extract. Started requests come back in `started` with
// their partial execution still recorded; their activations died with
// the accelerator, so the only way forward is Task.Restart (discard all
// progress, increment the attempt counter) followed by Adopt, or
// counting them as lost work. Both slices are in ascending task-ID order.
//
// Unlike Extract, Crash does not consult the scheduler: a crashed
// engine's scheduler instance is dead state — the orchestrator must seal
// this engine (Finish) and build a fresh Engine + scheduler for the slot
// if the hardware recovers. To keep the departing tasks adoptable, Crash
// scrubs the scheduler-facing state it cannot hand over (Attachment,
// heap index) itself. Crashing a finished engine is an error; crashing
// an idle engine returns two empty slices.
func (e *Engine) Crash(now time.Duration) (queued, started []*Task, err error) {
	if e.finished {
		return nil, nil, fmt.Errorf("sched: Crash after Finish")
	}
	for len(e.pending.entries) > 0 {
		t := e.pending.entries[0].t
		e.pending.removeAt(0)
		e.accountRemove(t)
		t.Attachment = nil
		t.heapIndex = -1
		queued = append(queued, t)
	}
	for _, t := range append([]*Task(nil), e.ready.Tasks()...) {
		e.ready.remove(t)
		e.accountRemove(t)
		t.Attachment = nil
		t.heapIndex = -1
		if t.NextLayer == 0 {
			queued = append(queued, t)
		} else {
			started = append(started, t)
		}
	}
	e.injected -= len(queued) + len(started)
	e.last = nil
	// The departed requests must not anchor this incarnation's makespan;
	// only completed work remains, so re-seed firstArrival from it.
	if e.bounded {
		if e.doneAny {
			e.firstArrival = e.doneMinArrival
		}
	} else if len(e.done) > 0 {
		first := e.done[0].Arrival
		for _, d := range e.done {
			if d.Arrival < first {
				first = d.Arrival
			}
		}
		e.firstArrival = first
	}
	sort.Slice(queued, func(i, j int) bool { return queued[i].ID < queued[j].ID })
	sort.Slice(started, func(i, j int) bool { return started[i].ID < started[j].ID })
	return queued, started, nil
}

// forgetArrival repairs firstArrival after an extraction: a departed
// request must not anchor this engine's makespan (the window it defines
// is served elsewhere). Only needed when the extracted task was the
// earliest; the rescan covers every request still owned by the engine
// (queued, pending, completed — injected counts them all).
func (e *Engine) forgetArrival(t *Task) {
	if t.Arrival != e.firstArrival {
		return
	}
	seen := false
	first := time.Duration(0)
	note := func(a time.Duration) {
		if !seen || a < first {
			seen, first = true, a
		}
	}
	for _, q := range e.ready.Tasks() {
		note(q.Arrival)
	}
	for i := range e.pending.entries {
		note(e.pending.entries[i].t.Arrival)
	}
	if e.bounded {
		// Completed requests survive only as aggregates; their minimum
		// arrival is tracked incrementally and equals the full-mode scan.
		if e.doneAny {
			note(e.doneMinArrival)
		}
	} else {
		for _, d := range e.done {
			note(d.Arrival)
		}
	}
	if seen {
		e.firstArrival = first
	}
	// Nothing left: injected is 0, and the next Inject/Adopt re-seeds
	// firstArrival unconditionally.
}

// Adopt hands an extracted task to this engine. at is the virtual time the
// task becomes visible — the extraction instant plus any migration cost
// the orchestrator charges — and delivery follows the Inject contract: the
// scheduler sees the task (through its own OnArrival) at the first
// scheduling point at or after max(at, t.Arrival). The task keeps its
// original ID, arrival and SLO, so turnaround metrics keep measuring from
// the real arrival: a migrated request pays the transfer delay in its own
// latency, never by rewriting history.
func (e *Engine) Adopt(t *Task, at time.Duration) error {
	if e.finished {
		return fmt.Errorf("sched: Adopt after Finish")
	}
	if t.Done {
		return fmt.Errorf("sched: Adopt of completed task %d", t.ID)
	}
	if t.NextLayer > 0 {
		return fmt.Errorf("sched: Adopt of started task %d", t.ID)
	}
	if t.queueIndex != -1 {
		return fmt.Errorf("sched: Adopt of task %d still owned by another ready queue", t.ID)
	}
	eff := at
	if t.Arrival > eff {
		eff = t.Arrival
	}
	if err := e.accountAdd(t); err != nil {
		return err
	}
	if e.injected == 0 || t.Arrival < e.firstArrival {
		e.firstArrival = t.Arrival
	}
	e.injected++
	e.pending.push(t, eff)
	return nil
}

// Migratable returns the engine's queued-but-never-started tasks — the
// requests Extract accepts — in ascending task-ID order (the ready queue's
// internal order is scan-order-free, so callers get a deterministic view).
// The running task (if any) and everything that has executed a layer are
// excluded.
func (e *Engine) Migratable() []*Task { return e.MigratableInto(nil) }

// MigratableInto is Migratable appending into a caller-owned buffer
// (passed with len 0), the allocation-free form rebalance rounds use:
// the returned slice shares the buffer's storage and is valid until its
// next reuse. The sort is comparison-based over plain ints, so it
// allocates nothing either.
func (e *Engine) MigratableInto(buf []*Task) []*Task {
	out := buf
	for _, t := range e.ready.Tasks() {
		if t.NextLayer == 0 {
			out = append(out, t)
		}
	}
	for i := range e.pending.entries {
		out = append(out, e.pending.entries[i].t)
	}
	slices.SortFunc(out, func(a, b *Task) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Drained reports whether every injected request has completed.
func (e *Engine) Drained() bool { return e.ready.Len() == 0 && e.pending.len() == 0 }

// Now returns the engine's virtual clock: the time of its last scheduling
// decision (or idle jump).
func (e *Engine) Now() time.Duration { return e.now }

// NextEvent returns the virtual time of the engine's next scheduling
// decision. ok is false when the engine is drained (nothing to schedule
// until the next Inject). It never mutates engine state.
func (e *Engine) NextEvent() (next time.Duration, ok bool) {
	if e.ready.Len() > 0 {
		return e.now, true
	}
	eff, ok := e.pending.minTime()
	if !ok {
		return 0, false
	}
	if eff < e.now {
		eff = e.now
	}
	return eff, true
}

// Outstanding returns the number of requests injected but not yet
// completed (queued, running, or awaiting delivery).
func (e *Engine) Outstanding() int { return e.ready.Len() + e.pending.len() }

// Completed returns the number of finished requests.
func (e *Engine) Completed() int { return e.nDone }

// BusyTime returns the accumulated accelerator-occupied time: executed
// layer latency plus charged preemption overhead.
func (e *Engine) BusyTime() time.Duration { return e.busy }

// LatencyScale returns the engine's effective latency scale factor
// (Options.LatencyScale, defaulted to 1): the capacity signal cluster
// dispatchers use to normalize load estimates across a heterogeneous
// cluster. It is a static hardware property, never stale.
func (e *Engine) LatencyScale() float64 { return e.scale }

// scaleDur applies the engine's latency scale to a reference-hardware
// duration. The scale-1 fast path avoids float arithmetic so homogeneous
// runs stay bit-identical to the pre-heterogeneity engine.
func (e *Engine) scaleDur(d time.Duration) time.Duration {
	if e.scale == 1 {
		return d
	}
	return time.Duration(float64(d) * e.scale)
}

// estimate evaluates the bound backlog estimator for a task at its
// current NextLayer: a slice index when the task carries a resolved
// curve, an estimator call otherwise.
func (e *Engine) estimate(t *Task) time.Duration {
	if t.estCurve != nil {
		if t.NextLayer < len(t.estCurve) {
			return t.estCurve[t.NextLayer]
		}
		return 0
	}
	return e.est(t)
}

// accountAdd enrolls a task entering the engine (Inject/Adopt) in the
// incremental backlog sum, resolving its estimate curve. The one scalar
// estimator call per enrollment cross-checks a resolved curve against the
// estimator it claims to accelerate, so mis-wired curves fail loudly at
// the injection instant instead of silently skewing every signal after
// it.
func (e *Engine) accountAdd(t *Task) error {
	if e.est == nil {
		return nil
	}
	t.estCurve = nil
	if e.curve != nil {
		t.estCurve = e.curve(t)
	}
	amt := e.est(t)
	if t.estCurve != nil {
		if c := e.estimate(t); c != amt {
			return fmt.Errorf(
				"sched: BacklogCurve disagrees with BacklogEstimator for task %d at layer %d (%v vs %v)",
				t.ID, t.NextLayer, c, amt)
		}
	}
	t.estAccounted = amt
	e.backlog += amt
	return nil
}

// accountRemove strikes a departing task (completion, Extract, Crash)
// from the incremental backlog sum and clears its accounting state: the
// curve belongs to the engine that resolved it, so an adopting engine
// re-resolves from scratch.
func (e *Engine) accountRemove(t *Task) {
	if e.est == nil {
		return
	}
	e.backlog -= t.estAccounted
	t.estAccounted = 0
	t.estCurve = nil
}

// accountStep re-evaluates the running task's contribution after an
// executed layer: the only per-event accounting update, O(1) by curve
// index (or one estimator call without a curve).
func (e *Engine) accountStep(t *Task) {
	if e.est == nil {
		return
	}
	amt := e.estimate(t)
	e.backlog += amt - t.estAccounted
	t.estAccounted = amt
}

// BacklogBound reports whether the engine maintains the incremental
// backlog sum (Options.BacklogEstimator was set).
func (e *Engine) BacklogBound() bool { return e.est != nil }

// Backlog returns the engine's incrementally maintained backlog estimate:
// the sum of Options.BacklogEstimator over every outstanding task, in
// reference-hardware units — bit-identical to
// EstimatedBacklog(Options.BacklogEstimator), at O(1) instead of a queue
// walk. Zero (and meaningless) when no estimator is bound; callers gate
// on BacklogBound.
func (e *Engine) Backlog() time.Duration { return e.backlog }

// EstimatedBacklog sums load(t) over every outstanding task, the
// engine-load signal cluster dispatchers use. load typically wraps a
// profiling estimate (Estimator.Remaining, or the Dysta LUT's per-pattern
// AvgRemaining); it must not mutate the task.
//
// Visibility-delayed pending tasks — freshly adopted migrants still
// paying MigrationCost, or requests a dispatcher injected ahead of their
// arrival — count identically to delivered ready tasks. This is the
// intended semantics, not an accident: an outstanding request is
// committed future work for this engine whether or not the scheduler can
// see it yet, and a backlog that ignored in-flight adoptions would make
// the adopting engine look idle at exactly the instant the rebalancer
// (or dispatcher) is deciding whether to send it more. The
// pending-counts-fully regression test pins this, and the incremental
// sum (Backlog) implements the same spec.
//
// With a BacklogEstimator bound, this scan remains the O(n) reference
// the invariant tests compare Backlog against; hot paths (SignalBoard
// refreshes, rebalancer views) read the incremental sum instead.
func (e *Engine) EstimatedBacklog(load func(*Task) time.Duration) time.Duration {
	var sum time.Duration
	for _, t := range e.ready.Tasks() {
		sum += load(t)
	}
	for i := range e.pending.entries {
		sum += load(e.pending.entries[i].t)
	}
	return sum
}

// deliver hands every pending request visible at or before the clock to
// the scheduler, in (visibility, injection order) order.
func (e *Engine) deliver() {
	for {
		t, ok := e.pending.popAtOrBefore(e.now)
		if !ok {
			return
		}
		e.ready.add(t)
		e.s.OnArrival(t, e.now)
	}
}

// Step advances the simulation by one scheduling decision: deliver due
// arrivals (jumping the clock over an idle gap if nothing is ready),
// invoke the scheduler, execute one layer of the picked task, and notify
// the scheduler of its completion. It returns the engine clock after the
// layer — the time of the next scheduling decision. Calling Step on a
// drained or finished engine is an error.
func (e *Engine) Step() (time.Duration, error) {
	if e.finished {
		return 0, fmt.Errorf("sched: Step after Finish")
	}
	e.deliver()
	if e.ready.Len() == 0 {
		eff, ok := e.pending.minTime()
		if !ok {
			return 0, fmt.Errorf("sched: Step on a drained engine")
		}
		// Idle: jump to the next arrival.
		e.now = eff
		e.deliver()
	}

	var pick *Task
	if e.inc != nil {
		pick = e.inc.PickNextIncremental(&e.ready, e.now)
	} else {
		pick = e.s.PickNext(e.ready.Tasks(), e.now)
	}
	if pick == nil || !e.ready.Contains(pick) {
		return 0, fmt.Errorf("sched: %s picked a task outside the ready queue", e.s.Name())
	}
	if e.last != nil && e.last != pick && !e.last.Done {
		e.preempts++
		overhead := e.scaleDur(e.opts.PreemptionOverhead)
		e.now += overhead
		e.busy += overhead
	}
	e.last = pick

	layer := pick.NextLayer
	raw := pick.nextLayerLatency()
	dur := e.scaleDur(raw)
	if e.timeline != nil {
		e.timeline.record(pick.ID, e.now, e.now+dur)
	}
	e.now += dur
	e.busy += dur
	pick.ExecTime += dur
	pick.LastRun = e.now
	pick.NextLayer++
	// Ground-truth remaining stays in reference units (the unscaled
	// trace), so Oracle scoring and profiling estimates remain
	// comparable across engines of different speeds.
	pick.trueRemaining -= raw
	if pick.NextLayer == pick.NumLayers() {
		// Mark completion before notifying the scheduler, so
		// OnLayerComplete implementations can release their per-task
		// state on the final layer.
		pick.Done = true
		pick.Completion = e.now
		e.ready.remove(pick)
		e.accountRemove(pick)
		e.nDone++
		turn := e.now - pick.Arrival
		if e.bounded {
			e.noteDone(pick, turn)
		} else {
			e.done = append(e.done, pick)
			e.turnRatios = append(e.turnRatios, float64(turn)/float64(pick.TrueIsolated()))
			e.latencies = append(e.latencies, float64(turn))
		}
		if e.opts.Observer != nil {
			e.opts.Observer(outcomeOf(pick))
		}
	} else {
		e.accountStep(pick)
	}
	e.s.OnLayerComplete(pick, layer, pick.monitoredSparsity(layer), e.now)
	if pick.Done && e.bounded {
		// Bounded capture retains nothing per request past this point
		// (the aggregates and exemplar reservoir hold copies), so the
		// task goes back to the pool. e.last must not dangle into the
		// pool: nil carries the same "no preemption on the next pick"
		// meaning Done did. Full capture keeps tasks in e.done until
		// Finish and never pools them.
		if e.last == pick {
			e.last = nil
		}
		releaseTask(pick)
	}
	return e.now, nil
}

// noteDone folds one completion into the bounded-capture aggregates, in
// completion order — the same order the full-capture Finish traverses
// e.done in, which is what keeps the ordered float sums (ANTT,
// MeanLatency, PerModel) bit-identical between the two modes.
func (e *Engine) noteDone(t *Task, turn time.Duration) {
	ntt := float64(turn) / float64(t.TrueIsolated())
	e.turnSum += ntt
	e.latSum += float64(turn)
	e.latHist.Add(turn)
	violated := t.Violated(t.Completion)
	if violated {
		e.violations++
	}
	if t.Completion > e.lastDone {
		e.lastDone = t.Completion
	}
	if !e.doneAny || t.Arrival < e.doneMinArrival {
		e.doneAny, e.doneMinArrival = true, t.Arrival
	}
	m := e.perModel[t.Key.Model]
	m.Requests++
	m.ANTT += ntt
	if violated {
		m.ViolationRate++
	}
	e.perModel[t.Key.Model] = m
	if e.exemplars != nil {
		e.exemplars.Add(outcomeOf(t))
	}
}

// finishBounded is Finish for bounded-capture engines: the same metric
// definitions recomputed from the streaming aggregates.
func (e *Engine) finishBounded() Result {
	res := Result{Scheduler: e.s.Name(), Dropped: e.injected - e.nDone,
		Offered: e.injected}
	if e.nDone == 0 {
		return res
	}
	n := float64(e.nDone)
	res.ANTT = e.turnSum / n
	res.Preemptions = e.preempts
	res.Requests = e.nDone
	res.Violations = e.violations
	res.ViolationRate = float64(e.violations) / n
	res.MeanLatency = time.Duration(e.latSum / n)
	res.P50Latency = e.latHist.Quantile(50)
	res.P95Latency = e.latHist.Quantile(95)
	res.P99Latency = e.latHist.Quantile(99)
	res.Makespan = e.lastDone - e.firstArrival
	res.EngineSeconds = res.Makespan.Seconds()
	if res.Makespan > 0 {
		res.Throughput = n / res.Makespan.Seconds()
		res.Goodput = float64(e.nDone-e.violations) / res.Makespan.Seconds()
	}
	res.PerModel = map[string]ModelMetrics{}
	for name, m := range e.perModel {
		m.ANTT /= float64(m.Requests)
		m.ViolationRate /= float64(m.Requests)
		res.PerModel[name] = m
	}
	if e.exemplars != nil {
		res.Exemplars = append([]TaskOutcome(nil), e.exemplars.Items()...)
	}
	return res
}

// Finish seals the engine and aggregates the run's metrics. Stepping or
// injecting afterwards is an error; calling Finish twice returns the same
// Result recomputed from the same completed set. Finalizing an undrained
// engine is allowed (deadline-bounded simulations stop mid-stream), but
// the metrics then cover only the completed requests: Result.Dropped
// counts the outstanding ones so the truncation is never silent.
func (e *Engine) Finish() Result {
	e.finished = true
	if e.bounded {
		return e.finishBounded()
	}
	res := Result{Scheduler: e.s.Name(), Dropped: e.injected - len(e.done),
		Offered: e.injected}
	if len(e.done) == 0 {
		return res
	}
	res.ANTT = stats.Mean(e.turnRatios)
	res.Preemptions = e.preempts
	res.Requests = len(e.done)
	violations := 0
	var lastDone time.Duration
	for _, t := range e.done {
		if t.Violated(t.Completion) {
			violations++
		}
		if t.Completion > lastDone {
			lastDone = t.Completion
		}
	}
	res.Violations = violations
	res.ViolationRate = float64(violations) / float64(len(e.done))
	res.MeanLatency = time.Duration(stats.Mean(e.latencies))
	// Sort a copy once for the three percentiles: e.latencies stays in
	// completion order for a second Finish.
	sorted := append([]float64(nil), e.latencies...)
	sort.Float64s(sorted)
	res.P50Latency = time.Duration(stats.PercentileSorted(sorted, 50))
	res.P95Latency = time.Duration(stats.PercentileSorted(sorted, 95))
	res.P99Latency = time.Duration(stats.PercentileSorted(sorted, 99))
	res.Makespan = lastDone - e.firstArrival
	// A standalone engine bills exactly its makespan of capacity; the
	// cluster layer overwrites this with the pool's in-service total.
	res.EngineSeconds = res.Makespan.Seconds()
	if res.Makespan > 0 {
		res.Throughput = float64(len(e.done)) / res.Makespan.Seconds()
		res.Goodput = float64(len(e.done)-violations) / res.Makespan.Seconds()
	}
	res.PerModel = map[string]ModelMetrics{}
	for _, t := range e.done {
		m := res.PerModel[t.Key.Model]
		m.Requests++
		m.ANTT += float64(t.Completion-t.Arrival) / float64(t.TrueIsolated())
		if t.Violated(t.Completion) {
			m.ViolationRate++
		}
		res.PerModel[t.Key.Model] = m
	}
	for name, m := range res.PerModel {
		m.ANTT /= float64(m.Requests)
		m.ViolationRate /= float64(m.Requests)
		res.PerModel[name] = m
	}
	res.Timeline = e.timeline
	if e.opts.RecordTasks {
		res.Tasks = make([]TaskOutcome, 0, len(e.done))
		for _, t := range e.done {
			res.Tasks = append(res.Tasks, outcomeOf(t))
		}
		sort.Slice(res.Tasks, func(i, j int) bool { return res.Tasks[i].ID < res.Tasks[j].ID })
	}
	return res
}

// Run simulates the request stream under the scheduler and returns the
// aggregated metrics: a thin loop over the steppable Engine API. Requests
// are processed on a single time-shared accelerator; preemption happens
// only at layer boundaries.
func Run(s Scheduler, reqs []*workload.Request, opts Options) (Result, error) {
	if len(reqs) == 0 {
		return Result{}, fmt.Errorf("sched: empty request stream")
	}
	sorted := append([]*workload.Request(nil), reqs...)
	workload.SortByArrival(sorted)
	e := NewEngine(s, opts)
	for _, r := range sorted {
		if err := e.Inject(r, r.Arrival); err != nil {
			return Result{}, err
		}
	}
	for !e.Drained() {
		if _, err := e.Step(); err != nil {
			return Result{}, err
		}
	}
	return e.Finish(), nil
}

// pendingEntry is one injected-but-undelivered request: the task plus its
// visibility time and injection sequence number.
type pendingEntry struct {
	t   *Task
	eff time.Duration
	seq int
}

// pendingQueue is a min-heap of injected requests ordered by (visibility
// time, injection order), so delivery reproduces the stable
// sorted-by-arrival order Run has always used, while still accepting
// out-of-order injection from an external dispatcher.
type pendingQueue struct {
	entries []pendingEntry
	seq     int
}

func (q *pendingQueue) len() int { return len(q.entries) }

// minTime returns the earliest visibility time, or false when empty.
func (q *pendingQueue) minTime() (time.Duration, bool) {
	if len(q.entries) == 0 {
		return 0, false
	}
	return q.entries[0].eff, true
}

func (q *pendingQueue) push(t *Task, eff time.Duration) {
	q.entries = append(q.entries, pendingEntry{t: t, eff: eff, seq: q.seq})
	q.seq++
	i := len(q.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.entries[i], q.entries[parent] = q.entries[parent], q.entries[i]
		i = parent
	}
}

// popAtOrBefore removes and returns the earliest entry whose visibility
// time is at or before now, or false when none is due.
func (q *pendingQueue) popAtOrBefore(now time.Duration) (*Task, bool) {
	if len(q.entries) == 0 || q.entries[0].eff > now {
		return nil, false
	}
	t := q.entries[0].t
	q.removeAt(0)
	return t, true
}

// removeByID removes and returns the entry holding the task with the
// given ID, or false when absent. Migration extracts undelivered requests
// through this path; the linear scan is fine at queue sizes the engine
// sees (rebalancing is interval-gated, not per-event).
func (q *pendingQueue) removeByID(id int) (*Task, bool) {
	for i := range q.entries {
		if q.entries[i].t.ID == id {
			t := q.entries[i].t
			q.removeAt(i)
			return t, true
		}
	}
	return nil, false
}

// removeAt deletes the entry at heap index i, swapping the last entry
// into its slot and restoring the heap order in both directions (a swap
// from the tail can violate order toward either the root or the leaves).
func (q *pendingQueue) removeAt(i int) {
	last := len(q.entries) - 1
	q.entries[i] = q.entries[last]
	q.entries[last] = pendingEntry{}
	q.entries = q.entries[:last]
	if i == last {
		return
	}
	// Sift down, then up if it never moved down.
	start := i
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && q.less(r, child) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q.entries[i], q.entries[child] = q.entries[child], q.entries[i]
		i = child
	}
	if i == start {
		for i > 0 {
			parent := (i - 1) / 2
			if !q.less(i, parent) {
				break
			}
			q.entries[i], q.entries[parent] = q.entries[parent], q.entries[i]
			i = parent
		}
	}
}

// less orders entries by visibility time, then injection order.
func (q *pendingQueue) less(i, j int) bool {
	a, b := q.entries[i], q.entries[j]
	return a.eff < b.eff || (a.eff == b.eff && a.seq < b.seq)
}
