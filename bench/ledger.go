package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/exp"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// This file is the traced child's per-layer ledger: decorators that wrap
// each public seam the simulator exposes (request source, scheduler,
// dispatch, admission, rebalance, load estimate), count every call, time
// the timed ones, and keep spans for the first requests of the run. The
// untraced child never builds a ledger, so end-to-end metrics are measured
// on the undecorated program.

// layerID indexes the timed seams.
type layerID int

const (
	layerNext layerID = iota
	layerArrival
	layerPick
	layerLayer
	layerExtract
	layerDispatch
	layerAdmission
	layerRebalance
	numLayers
)

// layerNames names each timed seam in spans and prefixes its per-layer
// metrics.
var layerNames = [numLayers]string{
	"workload.next",
	"sched.arrival",
	"sched.pick",
	"sched.layer",
	"sched.extract",
	"cluster.dispatch",
	"cluster.admission",
	"cluster.rebalance",
}

const (
	// spanRequests bounds span capture to request IDs below it.
	spanRequests = 1000
	// maxSpans caps the span buffer: workloads whose request IDs restart
	// per simulation cell (paper-grid) would otherwise span every call.
	maxSpans = 200_000
)

// span is one timed call, in nanoseconds since the run span started.
// Every call span's parent is the run span (ID 0).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"`
}

// ledger accumulates per-seam counts and times for one traced run. Every
// simulation the benchmark drives runs on one goroutine, so it needs no
// locking.
type ledger struct {
	epoch time.Time
	calls [numLayers]int64
	ns    [numLayers]int64
	// pickDepth sums the ready-queue length seen by every pick.
	pickDepth int64
	// loadCalls and curveCalls count calls of the run's load estimate and
	// its curve form (counted, not timed: they run inside engine code).
	loadCalls, curveCalls int64
	admits                int64
	moves                 int64
	spans                 []span
}

// done closes a call of seam id that started at t0, on behalf of request
// req (-1 when the call serves no single request).
func (l *ledger) done(id layerID, t0 time.Time, req int) {
	t1 := time.Now()
	l.calls[id]++
	l.ns[id] += int64(t1.Sub(t0))
	if req >= 0 && req < spanRequests && len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{
			ID:      len(l.spans) + 1,
			Name:    layerNames[id],
			Start:   int64(t0.Sub(l.epoch)),
			End:     int64(t1.Sub(l.epoch)),
			Request: req,
		})
	}
}

// picked closes a pick call over a ready queue of the given depth.
func (l *ledger) picked(t0 time.Time, t *sched.Task, depth int) {
	id := -1
	if t != nil {
		id = t.ID
	}
	l.pickDepth += int64(depth)
	l.done(layerPick, t0, id)
}

// writeSpans writes the run span and every kept call span to
// dir/<name>.spans.json.
func (l *ledger) writeSpans(dir, name string, wall time.Duration) error {
	all := make([]span, 0, len(l.spans)+1)
	all = append(all, span{ID: 0, Name: "run", End: int64(wall), Request: -1, Parent: -1})
	all = append(all, l.spans...)
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{name, all})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".spans.json"), data, 0o644)
}

// spanCost measures the tracing cost of one empty span: inner is what an
// empty call reads as its own duration (subtracted from every layer's
// time), full is what the span adds to the caller's wall time (subtracted
// from the engine remainder). Each is the median of several batches.
func spanCost() (inner, full float64) {
	const batches, n = 7, 20_000
	inners := make([]float64, batches)
	fulls := make([]float64, batches)
	for b := range inners {
		start := time.Now()
		l := &ledger{epoch: start}
		for i := 0; i < n; i++ {
			l.done(layerNext, time.Now(), -1)
		}
		fulls[b] = float64(time.Since(start)) / n
		inners[b] = float64(l.ns[layerNext]) / n
	}
	return median(inners), median(fulls)
}

// traceSched wraps a scheduler for the ledger when l is non-nil. The
// wrapper mirrors the scheduler's optional interfaces so the engine takes
// the same pick path it takes undecorated: it always offers the scalable
// and incremental picks and forwards each in the engine's own order
// (scalable, then incremental, then reference), and it implements
// TaskExtractor only when the scheduler does, because the engine refuses
// extraction from schedulers without it.
func traceSched(s sched.Scheduler, l *ledger) sched.Scheduler {
	if l == nil {
		return s
	}
	ts := &tracedSched{inner: s, l: l}
	ts.inc, _ = s.(sched.IncrementalScheduler)
	ts.scalable, _ = s.(sched.ScalableScheduler)
	if x, ok := s.(sched.TaskExtractor); ok {
		return tracedExtractor{ts, x}
	}
	return ts
}

type tracedSched struct {
	inner      sched.Scheduler
	inc        sched.IncrementalScheduler
	scalable   sched.ScalableScheduler
	scalableOn bool
	l          *ledger
}

func (s *tracedSched) Name() string { return s.inner.Name() }

func (s *tracedSched) OnArrival(t *sched.Task, now time.Duration) {
	t0 := time.Now()
	s.inner.OnArrival(t, now)
	s.l.done(layerArrival, t0, t.ID)
}

func (s *tracedSched) OnLayerComplete(t *sched.Task, layer int, monitored float64, now time.Duration) {
	t0 := time.Now()
	s.inner.OnLayerComplete(t, layer, monitored, now)
	s.l.done(layerLayer, t0, t.ID)
}

func (s *tracedSched) PickNext(ready []*sched.Task, now time.Duration) *sched.Task {
	t0 := time.Now()
	p := s.inner.PickNext(ready, now)
	s.l.picked(t0, p, len(ready))
	return p
}

func (s *tracedSched) PickNextIncremental(q *sched.ReadyQueue, now time.Duration) *sched.Task {
	t0 := time.Now()
	var p *sched.Task
	if s.inc != nil {
		p = s.inc.PickNextIncremental(q, now)
	} else {
		p = s.inner.PickNext(q.Tasks(), now)
	}
	s.l.picked(t0, p, q.Len())
	return p
}

// EnableScalable forwards only to a scalable scheduler; the engine calls
// it once, at construction, when Options.ScalablePick is set.
func (s *tracedSched) EnableScalable() {
	if s.scalable != nil {
		s.scalable.EnableScalable()
		s.scalableOn = true
	}
}

func (s *tracedSched) PickNextScalable(q *sched.ReadyQueue, now time.Duration) *sched.Task {
	if !s.scalableOn {
		return s.PickNextIncremental(q, now)
	}
	t0 := time.Now()
	p := s.scalable.PickNextScalable(q, now)
	s.l.picked(t0, p, q.Len())
	return p
}

// tracedExtractor is tracedSched for schedulers implementing
// sched.TaskExtractor.
type tracedExtractor struct {
	*tracedSched
	x sched.TaskExtractor
}

func (s tracedExtractor) OnExtract(t *sched.Task, now time.Duration) {
	t0 := time.Now()
	s.x.OnExtract(t, now)
	s.l.done(layerExtract, t0, t.ID)
}

// The cluster layer discovers a policy's load estimate, its curve form
// and its reset hook through these method sets.
type (
	loadFuncer interface {
		LoadFunc() func(*sched.Task) time.Duration
	}
	curveFuncer interface {
		CurveFunc() func(*sched.Task) []time.Duration
	}
	resetter interface{ Reset() }
)

// policyHooks forwards LoadFunc, CurveFunc and Reset to the wrapped
// policy, counting every call of the returned estimate functions. A
// policy without an estimate yields nil, exactly what the cluster reads
// from a policy that lacks the method, and Reset on a policy without one
// is a no-op, so every policy decorator can offer all three.
type policyHooks struct {
	inner any
	l     *ledger
}

func (h policyHooks) LoadFunc() func(*sched.Task) time.Duration {
	lp, ok := h.inner.(loadFuncer)
	if !ok || lp.LoadFunc() == nil {
		return nil
	}
	load, l := lp.LoadFunc(), h.l
	return func(t *sched.Task) time.Duration {
		l.loadCalls++
		return load(t)
	}
}

func (h policyHooks) CurveFunc() func(*sched.Task) []time.Duration {
	cp, ok := h.inner.(curveFuncer)
	if !ok || cp.CurveFunc() == nil {
		return nil
	}
	curve, l := cp.CurveFunc(), h.l
	return func(t *sched.Task) []time.Duration {
		l.curveCalls++
		return curve(t)
	}
}

func (h policyHooks) Reset() {
	if r, ok := h.inner.(resetter); ok {
		r.Reset()
	}
}

// traceDispatch wraps a dispatcher for the ledger when l is non-nil.
func traceDispatch(d cluster.Dispatcher, l *ledger) cluster.Dispatcher {
	if l == nil {
		return d
	}
	return tracedDispatch{policyHooks{d, l}, d}
}

type tracedDispatch struct {
	policyHooks
	d cluster.Dispatcher
}

func (d tracedDispatch) Name() string { return d.d.Name() }

func (d tracedDispatch) Pick(sig []cluster.EngineSignal, r *workload.Request, now time.Duration) int {
	t0 := time.Now()
	i := d.d.Pick(sig, r, now)
	d.l.done(layerDispatch, t0, r.ID)
	return i
}

// traceAdmission wraps an admission policy for the ledger when l is
// non-nil.
func traceAdmission(a cluster.Admission, l *ledger) cluster.Admission {
	if l == nil {
		return a
	}
	return tracedAdmission{policyHooks{a, l}, a}
}

type tracedAdmission struct {
	policyHooks
	a cluster.Admission
}

func (a tracedAdmission) Name() string { return a.a.Name() }

func (a tracedAdmission) Admit(sig []cluster.EngineSignal, r *workload.Request, now time.Duration) bool {
	t0 := time.Now()
	ok := a.a.Admit(sig, r, now)
	if ok {
		a.l.admits++
	}
	a.l.done(layerAdmission, t0, r.ID)
	return ok
}

// traceRebalance wraps a migration policy for the ledger when l is
// non-nil.
func traceRebalance(p cluster.RebalancePolicy, l *ledger) cluster.RebalancePolicy {
	if l == nil {
		return p
	}
	return tracedRebalance{policyHooks{p, l}, p}
}

type tracedRebalance struct {
	policyHooks
	p cluster.RebalancePolicy
}

func (p tracedRebalance) Name() string { return p.p.Name() }

func (p tracedRebalance) Plan(views []cluster.EngineView, now, cost time.Duration) []cluster.Move {
	t0 := time.Now()
	moves := p.p.Plan(views, now, cost)
	p.l.moves += int64(len(moves))
	p.l.done(layerRebalance, t0, -1)
	return moves
}

// traceSource wraps a request source for the ledger when l is non-nil.
func traceSource(src sched.RequestSource, l *ledger) sched.RequestSource {
	if l == nil {
		return src
	}
	return &tracedSource{src, l}
}

type tracedSource struct {
	src sched.RequestSource
	l   *ledger
}

func (s *tracedSource) Next() (*workload.Request, bool) {
	t0 := time.Now()
	r, ok := s.src.Next()
	id := -1
	if ok {
		id = r.ID
	}
	s.l.done(layerNext, t0, id)
	return r, ok
}

// generate is workload.Generate over the pipeline's evaluation traces,
// timed as one workload.next call when l is non-nil.
func generate(p *exp.Pipeline, cfg workload.GenConfig, l *ledger) ([]*workload.Request, error) {
	if l == nil {
		return workload.Generate(p.Scenario, p.Eval, cfg)
	}
	t0 := time.Now()
	reqs, err := workload.Generate(p.Scenario, p.Eval, cfg)
	l.done(layerNext, t0, -1)
	return reqs, err
}
