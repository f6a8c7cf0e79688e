package sched

import (
	"fmt"
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
type RequestSource interface {
	Next() (*workload.Request, bool)
}

// SliceSource adapts a materialized request slice to RequestSource. The
// slice must already be sorted by arrival (use workload.SortByArrival);
// the adapter does not copy or reorder it.
type SliceSource struct {
	reqs []*workload.Request
	next int
}

// NewSliceSource wraps reqs.
func NewSliceSource(reqs []*workload.Request) *SliceSource {
	return &SliceSource{reqs: reqs}
}

// Next implements RequestSource.
func (s *SliceSource) Next() (*workload.Request, bool) {
	if s.next >= len(s.reqs) {
		return nil, false
	}
	r := s.reqs[s.next]
	s.next++
	return r, true
}

// RunStream simulates a request stream under the scheduler without ever
// holding more than the in-flight requests: each request is injected
// when the iterator yields it, after stepping the engine strictly past
// every event before that arrival. The schedule is bit-identical to
// Run on the materialized stream — the engine's next event never
// precedes the next arrival when the step loop breaks, and injection
// happens before any scheduling point at or after the arrival, which is
// exactly the visibility Run's up-front injection provides.
func RunStream(s Scheduler, src RequestSource, opts Options) (Result, error) {
	e := NewEngine(s, opts)
	req, ok := src.Next()
	if !ok {
		return Result{}, fmt.Errorf("sched: empty request stream")
	}
	var lastArrival int64 = -1
	for ok {
		if int64(req.Arrival) < lastArrival {
			return Result{}, fmt.Errorf(
				"sched: RunStream source yielded request %d at %v after an arrival at %v (stream must be sorted)",
				req.ID, req.Arrival, time.Duration(lastArrival))
		}
		lastArrival = int64(req.Arrival)
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
	return e.Finish(), nil
}
