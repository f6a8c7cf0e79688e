package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"sparsedysta/internal/workload"
)

// RequestSource is the streaming form of a request slice: an iterator
// yielding requests in nondecreasing arrival order, one at a time, so a
// run never materializes its stream (workload.Stream implements it).
// RunStream and cluster.RunStream enforce the ordering — a source that
// yields a request earlier than its predecessor fails the run, because
// lazy injection would otherwise let the engine's clock pass an arrival
// before the request exists, silently rewriting history.
//
// A yielded request is valid only until the next call to Next: a source
// may reuse one Request for every yield (workload.Stream does), so a
// consumer copies whatever it keeps past that call.
//
// A source that also has a Len() int method (workload.Stream and
// SliceSource do) reports its length, which the loops use only as a
// capacity hint to size full capture once (Aggregator.ReserveFor): a
// missing or wrong Len changes no result.
type RequestSource interface {
	Next() (*workload.Request, bool)
}

// SliceSource adapts a materialized request slice to RequestSource. The
// slice must already be sorted by arrival (SortedSource sorts when it
// is not); the adapter does not copy or reorder it.
type SliceSource struct {
	reqs []*workload.Request
	next int
}

// NewSliceSource wraps reqs.
func NewSliceSource(reqs []*workload.Request) *SliceSource {
	return &SliceSource{reqs: reqs}
}

// SortedSource wraps reqs in arrival order, the source Run and
// cluster.Run feed their streaming loops: the caller's slice itself when
// it is already sorted (workload.Generate's is), otherwise a stably
// sorted copy. The caller's slice is never reordered.
func SortedSource(reqs []*workload.Request) *SliceSource {
	if !slices.IsSortedFunc(reqs, func(a, b *workload.Request) int { return cmp.Compare(a.Arrival, b.Arrival) }) {
		reqs = slices.Clone(reqs)
		workload.SortByArrival(reqs)
	}
	return NewSliceSource(reqs)
}

// Len returns the slice length, the capacity hint RequestSource
// describes.
func (s *SliceSource) Len() int { return len(s.reqs) }

// Next implements RequestSource.
func (s *SliceSource) Next() (*workload.Request, bool) {
	if s.next >= len(s.reqs) {
		return nil, false
	}
	r := s.reqs[s.next]
	s.next++
	return r, true
}

// RunStream simulates a request stream under the scheduler, holding only
// the requests that have arrived and not yet completed: each request is
// injected when the iterator yields it, after stepping the engine
// strictly past every event before that arrival. Injection happens
// before any scheduling point at or after the arrival, the visibility an
// up-front injection of the whole stream provides, so the schedule does
// not depend on how far ahead requests are known. The engine's clock
// starts at 0, so a negative arrival fails the run, as does one earlier
// than its predecessor's. It is one run of a new Runner.
func RunStream(s Scheduler, src RequestSource, opts Options) (Result, error) {
	return new(Runner).Run(s, src, opts)
}

// Runner runs streams one after another on one engine, which each run
// re-arms in place as Crash does: its queues, aggregator buffers, crash
// buffers and task list keep their storage, so a run allocates only
// past what the runs before it grew, and what its Result keeps. Before
// the re-arm, the engine lets go of what the last Result holds (its
// Timeline and Tasks), so a returned Result never changes. The zero
// value is ready to use; a Runner is not safe for concurrent use.
type Runner struct {
	e *Engine
}

// Run simulates src under s exactly as RunStream does, on the runner's
// engine. s must be new, or emptied: a TaskExtractor whose last run
// finished without error schedules like a new one (see TaskExtractor).
func (r *Runner) Run(s Scheduler, src RequestSource, opts Options) (Result, error) {
	return r.RunInto(s, src, opts, nil)
}

// RunInto is Run with the Result's PerModel cut from slot when slot
// holds at least one entry per model that completed a request, capped at
// that count; otherwise, as with a nil slot, it is one new, exactly
// sized slice. The Result shares slot, so a caller that keeps many
// Results hands each run a slot of its own (exp.RunGrid cuts them from
// one slab).
func (r *Runner) RunInto(s Scheduler, src RequestSource, opts Options, slot []ModelMetrics) (Result, error) {
	if r.e == nil {
		r.e = NewEngine(s, opts)
	} else {
		r.e.arm(s, opts)
	}
	e := r.e
	req, ok := src.Next()
	if !ok {
		return Result{}, fmt.Errorf("sched: empty request stream")
	}
	e.agg.ReserveFor(src)
	var lastArrival time.Duration
	for ok {
		if err := CheckArrival("sched", req, lastArrival); err != nil {
			return Result{}, err
		}
		lastArrival = req.Arrival
		for !e.Drained() {
			t, _ := e.NextEvent()
			if t >= req.Arrival {
				break
			}
			if _, err := e.Step(); err != nil {
				return Result{}, err
			}
		}
		if err := e.Inject(req, req.Arrival); err != nil {
			return Result{}, err
		}
		req, ok = src.Next()
	}
	for !e.Drained() {
		if _, err := e.Step(); err != nil {
			return Result{}, err
		}
	}
	return e.finishInto(slot), nil
}

// CheckArrival is the arrival check both streaming loops (RunStream and
// cluster.RunStream) apply to each yielded request before it reaches an
// engine, and Engine.Inject to each request it is handed, with last at
// math.MinInt64. The request must have a trace with at least one layer
// and a monitored sparsity for each, which the engine executes and its
// key comes from; its arrival must be at or after the clock's start at
// 0, at or after the previous arrival, last (0 before the first
// request), and below the largest time.Duration, where a stream's clock
// saturates (traffic.Advance); and its deadline must be a time.Duration.
// pkg prefixes the error.
func CheckArrival(pkg string, req *workload.Request, last time.Duration) error {
	switch tr := req.Trace; {
	case tr == nil:
		return fmt.Errorf("%s: request %d has no trace", pkg, req.ID)
	case tr.NumLayers() == 0:
		return fmt.Errorf("%s: request %d has a trace with no layers", pkg, req.ID)
	case len(tr.LayerSparsity) != tr.NumLayers():
		return fmt.Errorf("%s: request %d has a trace with %d layer latencies and %d sparsities",
			pkg, req.ID, tr.NumLayers(), len(tr.LayerSparsity))
	case req.Arrival < 0:
		return fmt.Errorf("%s: request %d arrives at %v, before the clock starts at 0", pkg, req.ID, req.Arrival)
	case req.Arrival < last:
		return fmt.Errorf("%s: request stream yielded request %d at %v after an arrival at %v (stream must be sorted)",
			pkg, req.ID, req.Arrival, last)
	case req.Arrival == math.MaxInt64:
		return fmt.Errorf("%s: request %d arrives at or past the largest time.Duration, %v", pkg, req.ID, req.Arrival)
	case req.SLO > math.MaxInt64-req.Arrival:
		return fmt.Errorf("%s: request %d's deadline, arrival %v + SLO %v, is past the largest time.Duration",
			pkg, req.ID, req.Arrival, req.SLO)
	}
	return nil
}
