package core

import (
	"math"
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
)

// Dysta is the bi-level scheduler (paper §4.2). It implements
// sched.Scheduler; construct it with New and run it under sched.Run.
// NewOracle builds the paper's Oracle from it.
//
// Per-request state lives in a task attachment set at arrival, and the
// score components that only change at task events — the remaining and
// isolated latency, from the predictor or, for the Oracle, the ground
// truth — are cached there, so a scheduling decision is cheap float
// arithmetic with no map lookups and no predictor evaluations (the
// IncrementalScheduler fast path). The reference PickNext recomputes
// everything from scratch and must agree bit-for-bit; the equivalence
// tests enforce this.
type Dysta struct {
	cfg Config
	lut *trace.StatsSet

	// feasible and demoted partition the ready tasks, each a min-heap on
	// (requestState.key, ID). With the dynamic level disabled every task
	// sits in feasible keyed by its static score — the score itself, so
	// the pick is the heap minimum. Otherwise the pick is a pruned DFS
	// over both heaps: visited tasks are re-scored with cachedScore, the
	// reference arithmetic, and a subtree is skipped only when a lower
	// bound on every score in it STRICTLY exceeds the best score found,
	// so it can hold neither the argmin nor a tie the min-ID rule would
	// resolve. The pick is the reference argmin however much is pruned.
	//
	// feasible is keyed K = (1-Eta)*remain + Eta*ms(Deadline), so
	// K - Eta*ms(now) bounds every task's score from below. For a
	// feasible task (slack >= 0) the score is remain + Eta*(slack +
	// penalty), and remain + Eta*slack is K - Eta*ms(now) in real
	// arithmetic, so the bound is exact up to the non-negative penalty.
	// For a demoted task ms(Deadline-now) < remain, so the bound is below
	// remain, and the score is remain plus non-negative terms. The float
	// rounding between K - Eta*ms(now) and the rounded score is a few
	// ulps of the operands; pruneAbove's guard, relative to the
	// magnitudes compared, covers it many times over.
	//
	// demoted holds tasks already past their slack, keyed remain: their
	// score is fl(fl(remain + Eta*penalty) + DemotionMS) >=
	// fl(remain + DemotionMS), since adding a non-negative term never
	// rounds below the other operand and rounding is monotone, so the
	// subtree bound remain + DemotionMS holds exactly in floats. A
	// waiting task stays demoted — its slack only falls as now grows —
	// and is re-classified after each layer it executes. A feasible-heap
	// task a pick finds demoted moves to demoted after that pick.
	//
	// Both bounds need every term the score adds to remain to be
	// non-negative: Config.Validate rejects negative DemotionMS and
	// PenaltyWeight, and Eta is confined to [0,1].
	feasible, demoted sched.TaskHeap

	// The running search of one pick: the best task and score so far,
	// the feasible-heap key above which a subtree is pruned (see
	// pruneAbove), and the tasks it found demoted.
	best                   *sched.Task
	bestScore, cut, etaNow float64
	now                    time.Duration
	queueLen               float64
	newlyDemoted           []*sched.Task

	// truth scores ground-truth latencies (Task.TrueRemaining and
	// TrueIsolated) in place of the predictor's: set by NewOracle.
	truth bool

	// free recycles departed tasks' states for later arrivals (see
	// forget), so a warm scheduler allocates none.
	free sched.FreeList[requestState]
}

// requestState is the per-request bookkeeping of the dynamic level,
// attached to the task at arrival.
type requestState struct {
	// staticScore is the arrival-time score of the static level (Alg. 1),
	// in milliseconds. It fully determines ordering when the dynamic
	// level is disabled (Dysta-w/o-sparse).
	staticScore float64
	// pred refines remaining-latency estimates from monitored sparsity;
	// embedded, so it costs no allocation of its own.
	pred Predictor
	// remainMS and isolMS cache the remaining and isolated latencies
	// (ms, see Dysta.latencies): they change only when the request
	// executes a layer (NextLayer advances and the predictor observes, or
	// TrueRemaining falls), so refresh happens there rather than at every
	// scheduling decision.
	remainMS, isolMS float64
	// key orders the task in the heap that holds it (see Dysta.feasible),
	// and demoted says which heap that is.
	key     float64
	demoted bool
}

// New returns a Dysta scheduler over the profiling LUT. It panics on an
// invalid configuration (construction-time programming error).
func New(cfg Config, lut *trace.StatsSet) *Dysta {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Dysta{cfg: cfg, lut: lut}
	d.feasible.Init(byKey)
	d.demoted.Init(byKey)
	return d
}

// byKey orders both heaps by (requestState.key, ID).
func byKey(a, b *sched.Task) bool {
	ka, kb := state(a).key, state(b).key
	return ka < kb || (ka == kb && a.ID < b.ID)
}

// NewOracle returns the paper's Oracle (§6.4), the bound on any latency
// predictor: Dysta on DefaultConfig without the preemption penalty,
// scoring ground-truth latencies (Task.TrueRemaining, TrueIsolated)
// where Dysta scores the predictor's estimates.
func NewOracle(lut *trace.StatsSet) *Dysta {
	cfg := DefaultConfig()
	cfg.PenaltyWeight = 0
	d := New(cfg, lut)
	d.truth = true
	return d
}

// NewDefault returns Dysta with DefaultConfig.
func NewDefault(lut *trace.StatsSet) *Dysta { return New(DefaultConfig(), lut) }

// NewWithoutSparse returns the Dysta-w/o-sparse ablation (Fig. 13).
func NewWithoutSparse(lut *trace.StatsSet) *Dysta {
	return New(DefaultConfig().WithoutSparse(), lut)
}

// Name implements sched.Scheduler.
func (d *Dysta) Name() string {
	switch {
	case d.truth:
		return "Oracle"
	case !d.cfg.DynamicEnabled:
		return "Dysta-w/o-sparse"
	}
	return "Dysta"
}

// Config returns the scheduler's configuration.
func (d *Dysta) Config() Config { return d.cfg }

// state returns the task's attachment, or nil for a task the scheduler
// never saw arrive.
func state(t *sched.Task) *requestState {
	s, _ := t.Attachment.(*requestState)
	return s
}

// EnableScalable is a no-op: the heap pick is always on.
//
// Deprecated: kept only for callers that still name the scalable pick.
func (d *Dysta) EnableScalable() {}

// PickNextScalable is PickNextIncremental.
//
// Deprecated: kept only for callers that still name the scalable pick.
func (d *Dysta) PickNextScalable(q *sched.ReadyQueue, now time.Duration) *sched.Task {
	return d.PickNextIncremental(q, now)
}

// latencies returns the remaining and isolated latency the score reads:
// the predictor's estimates, or the ground truth under the truth switch.
func (d *Dysta) latencies(t *sched.Task, s *requestState) (remain, isol time.Duration) {
	if d.truth {
		return t.TrueRemaining(), t.TrueIsolated()
	}
	return s.pred.Remaining(t.NextLayer), s.pred.Isolated()
}

// refresh re-derives the cached score components.
func (d *Dysta) refresh(t *sched.Task, s *requestState) {
	remain, isol := d.latencies(t, s)
	s.remainMS, s.isolMS = ms(remain), ms(isol)
}

// OnArrival implements sched.Scheduler: the static level (Alg. 1).
// Lat_n is the LUT's average latency for the model-pattern pair — the
// pattern-aware estimate of line 5 — and the score is
// Lat_n + Beta * (SLO_n - Lat_n).
func (d *Dysta) OnArrival(t *sched.Task, now time.Duration) {
	st := d.lut.MustLookup(t.Key)
	lat := ms(st.AvgTotal)
	slack := ms(t.SLO) - lat
	s := d.free.Get()
	// Every field is written in place (refresh sets the latencies and
	// place the key), so a recycled state equals a fresh one but for the
	// LastN window buffer the predictor keeps.
	s.staticScore = lat + d.cfg.Beta*slack
	s.pred.reset(&d.cfg, st)
	s.demoted = false
	d.refresh(t, s)
	t.Attachment = s
	d.place(t, s, now)
	d.heap(s).Push(t)
}

// OnLayerComplete implements sched.Scheduler: the hardware monitor's
// sparsity reading feeds the request's sparse latency predictor (Alg. 2
// line 7, Alg. 3), and the cached score components are re-derived. A
// completed request's state is released. Under the truth switch nothing
// reads the predictor, so it observes nothing.
func (d *Dysta) OnLayerComplete(t *sched.Task, layer int, monitored float64, now time.Duration) {
	s := state(t)
	if t.Done || s == nil {
		d.forget(t)
		return
	}
	if d.cfg.DynamicEnabled && !d.truth {
		s.pred.Observe(layer, monitored)
	}
	d.refresh(t, s)
	was := d.heap(s)
	d.place(t, s, now)
	if h := d.heap(s); h != was {
		was.Remove(t)
		h.Push(t)
	} else {
		h.Fix(t)
	}
}

// heap returns the heap that holds (or is to hold) a task.
func (d *Dysta) heap(s *requestState) *sched.TaskHeap {
	if s.demoted {
		return &d.demoted
	}
	return &d.feasible
}

// place classifies a task at now and sets its heap key (see the field
// doc on Dysta.feasible); the caller moves or fixes its heap slot. The
// demotion test is cachedScore's, so it agrees with every later pick.
func (d *Dysta) place(t *sched.Task, s *requestState, now time.Duration) {
	switch {
	case !d.cfg.DynamicEnabled:
		s.key = s.staticScore
	case ms(t.Deadline()-now)-s.remainMS < 0:
		s.demoted, s.key = true, s.remainMS
	default:
		s.demoted = false
		s.key = (1-d.cfg.Eta)*s.remainMS + d.cfg.Eta*ms(t.Deadline())
	}
}

// forget releases a departing task's heap slot before the state it keys
// on, and puts the state on the free list: the task was its only
// holder, and OnArrival rewrites it before any later use.
func (d *Dysta) forget(t *sched.Task) {
	if s := state(t); s != nil {
		d.heap(s).Remove(t)
		d.free.Put(s)
	}
	t.Attachment = nil
}

// OnExtract implements sched.TaskExtractor: all of Dysta's per-request
// state (static score, predictor) lives in the attachment, and a migrated
// request has executed no layer, so the predictor holds no monitored
// sparsity worth carrying — the adopting engine's OnArrival rebuilds an
// identical fresh state from the LUT.
func (d *Dysta) OnExtract(t *sched.Task, _ time.Duration) { d.forget(t) }

// PickNext implements sched.Scheduler: the dynamic level (Alg. 2). Every
// queued request is re-scored with its refined remaining time, slack and
// preemption penalty; the minimum score runs next. With the dynamic level
// disabled, arrival-time static scores order the queue instead. This is
// the reference implementation: it evaluates the predictor from scratch
// for every task.
func (d *Dysta) PickNext(ready []*sched.Task, now time.Duration) *sched.Task {
	best := ready[0]
	bestScore := d.score(best, now, len(ready))
	for _, t := range ready[1:] {
		if sc := d.score(t, now, len(ready)); sc < bestScore || (sc == bestScore && t.ID < best.ID) {
			best, bestScore = t, sc
		}
	}
	return best
}

// PickNextIncremental implements sched.IncrementalScheduler: the same
// argmin as PickNext, by bound-pruned DFS over the two heaps (see the
// field doc on Dysta.feasible).
func (d *Dysta) PickNextIncremental(q *sched.ReadyQueue, now time.Duration) *sched.Task {
	if q.Len() == 1 {
		// The only ready task is the argmin (the common case below
		// saturation); scoring it would change nothing.
		return q.Tasks()[0]
	}
	if !d.cfg.DynamicEnabled {
		// The key IS the score: the heap minimum is the reference pick,
		// tie-break included.
		return d.feasible.Min()
	}
	d.best, d.now, d.queueLen = nil, now, float64(q.Len())
	d.bestScore, d.cut = math.Inf(1), math.Inf(1)
	d.etaNow = d.cfg.Eta * ms(now)
	// Feasible tasks first: they carry no demotion, so the best score
	// they yield usually prunes the demoted heap at its root. The
	// visitors are func literals rather than method values, so that the
	// inlined walk calls each method directly.
	d.feasible.Walk(func(t *sched.Task) bool { return d.visitFeasible(t) })
	d.demoted.Walk(func(t *sched.Task) bool { return d.visitDemoted(t) })
	for _, t := range d.newlyDemoted {
		s := state(t)
		d.feasible.Remove(t)
		s.demoted, s.key = true, s.remainMS
		d.demoted.Push(t)
	}
	clear(d.newlyDemoted)
	d.newlyDemoted = d.newlyDemoted[:0]
	best := d.best
	d.best = nil
	return best
}

// visitFeasible scores a feasible task and reports whether its bound
// leaves its subtree worth walking.
func (d *Dysta) visitFeasible(t *sched.Task) bool {
	s := state(t)
	if s.key > d.cut {
		return false
	}
	sc, demoted := d.cachedScore(t, s)
	if demoted {
		d.newlyDemoted = append(d.newlyDemoted, t)
	}
	d.consider(t, sc)
	return true
}

// visitDemoted scores a demoted task and reports whether the exact bound
// remain + DemotionMS of its subtree does not exceed the best score.
func (d *Dysta) visitDemoted(t *sched.Task) bool {
	s := state(t)
	if s.key+d.cfg.DemotionMS > d.bestScore {
		return false
	}
	sc, _ := d.cachedScore(t, s)
	d.consider(t, sc)
	return true
}

// consider folds one exact score into the running argmin and moves the
// feasible heap's pruning cut with it.
func (d *Dysta) consider(t *sched.Task, sc float64) {
	if d.best == nil || sc < d.bestScore || (sc == d.bestScore && t.ID < d.best.ID) {
		d.best, d.bestScore = t, sc
		d.cut = pruneAbove(sc, d.etaNow)
	}
}

// cachedScore is the fast-path score at the running pick's instant:
// identical arithmetic to score, with the predictor-derived terms read
// from the attachment cache. demoted reports whether the slack clamp
// fired.
func (d *Dysta) cachedScore(t *sched.Task, s *requestState) (score float64, demoted bool) {
	remain := s.remainMS
	slack := ms(t.Deadline()-d.now) - remain
	demotion := 0.0
	if slack < 0 {
		slack = 0
		demotion = d.cfg.DemotionMS
		demoted = true
	}
	// A zero weight makes the penalty exactly 0 (its other factors are
	// finite), and slack + 0 is slack, so skipping it changes no score.
	penalty := 0.0
	if d.cfg.PenaltyWeight != 0 && s.isolMS > 0 && d.queueLen > 0 {
		penalty = (ms(t.SinceLastRun(d.now)) / s.isolMS) / d.queueLen * d.cfg.PenaltyWeight
	}
	return remain + d.cfg.Eta*(slack+penalty) + demotion, demoted
}

// score computes the request's current score in milliseconds from
// scratch (Alg. 2 lines 7-11). Negative slack is clamped to zero so a
// task that can no longer meet its deadline competes on remaining time
// instead of hijacking the queue (the EDF overload pathology); the clamp
// is a documented refinement of the literal Alg. 2 (see DESIGN.md §6).
func (d *Dysta) score(t *sched.Task, now time.Duration, queueLen int) float64 {
	s := state(t)
	if s == nil {
		// Defensive: a task the scheduler never saw arrive sorts last.
		return 1e18
	}
	if !d.cfg.DynamicEnabled {
		return s.staticScore
	}
	remainD, isolD := d.latencies(t, s)
	remain, isol := ms(remainD), ms(isolD)
	slack := ms(t.Deadline()-now) - remain
	demotion := 0.0
	if slack < 0 {
		slack = 0
		demotion = d.cfg.DemotionMS
	}
	penalty := 0.0
	if isol > 0 && queueLen > 0 {
		penalty = (ms(t.SinceLastRun(now)) / isol) / float64(queueLen) * d.cfg.PenaltyWeight
	}
	return remain + d.cfg.Eta*(slack+penalty) + demotion
}

// etaGuard is pruneAbove's relative float guard: the rounding it covers
// is a few ulps (~1e-16 relative) of the score, key and Eta*ms(now)
// magnitudes, while real score gaps between tasks are microseconds on
// millisecond scores (~1e-3 relative).
const etaGuard = 1e-9

// pruneAbove is the feasible-heap key above which every task scores
// strictly above best (see the field doc on Dysta.feasible):
// K - Eta*ms(now) bounds each score from below in real arithmetic, and
// the guard, relative to the magnitudes compared, absorbs the rounding of
// both sides. A key barely past the cut carries a rounding error of a few
// ulps of best + etaNow; a larger key's error grows with the key, but its
// margin over the cut grows a full unit per unit of key.
func pruneAbove(best, etaNow float64) float64 {
	return best + etaGuard*(math.Abs(best)+etaNow) + etaNow
}

// ms converts a duration to float64 milliseconds, the score unit (matching
// the FP16 operand scale of the hardware implementation).
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var (
	_ sched.IncrementalScheduler = (*Dysta)(nil)
	_ sched.TaskExtractor        = (*Dysta)(nil)
)
