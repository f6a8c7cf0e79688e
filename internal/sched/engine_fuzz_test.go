package sched_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// fuzzTraces are the hand-built traces FuzzEngine injects: two models
// with two samples each, whose layer latencies and monitored sparsities
// differ per layer and per sample, so Dysta's predictor and PREMA's
// profile both have something to read.
func fuzzTraces() []*trace.SampleTrace {
	mk := func(model string, lat []time.Duration, sp []float64) *trace.SampleTrace {
		return &trace.SampleTrace{Key: trace.NewKey(model, sparsity.Dense), LayerLatency: lat, LayerSparsity: sp}
	}
	const us = time.Microsecond
	return []*trace.SampleTrace{
		mk("a", []time.Duration{300 * us, 900 * us, 200 * us}, []float64{0.2, 0.7, 0.5}),
		mk("a", []time.Duration{500 * us, 400 * us, 600 * us}, []float64{0.6, 0.1, 0.9}),
		mk("b", []time.Duration{2 * time.Millisecond}, []float64{0.4}),
		mk("b", []time.Duration{3 * time.Millisecond}, []float64{0.8}),
	}
}

// engineProgram is the state of one FuzzEngine program: two peer
// engines, the tasks the program holds after taking them off an engine
// by Extract or Crash, and the bookkeeping its checks read.
type engineProgram struct {
	engines [2]*sched.Engine
	traces  []*trace.SampleTrace
	// load is the backlog estimate the engines are bound to, or nil.
	load func(*sched.Task) time.Duration
	// held are the tasks the program took off an engine and has not
	// adopted again.
	held []*sched.Task
	// injected counts the requests an engine accepted; completed counts
	// each request ID's completions, on any engine and incarnation.
	injected  int
	completed map[int]int
	ids       []int
	data      []byte
}

// next returns the program's next byte, or 0 once it has run out.
func (p *engineProgram) next() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

// step runs the operation b encodes on engine b>>3&1. An operation a
// caller may get wrong (a request CheckArrival refuses, a drained Step,
// an unknown or started Extract, an Adopt of a started task or of one an
// engine still owns) must return an error and leave everything as it
// was; nothing may panic.
func (p *engineProgram) step(b byte) {
	e := p.engines[b>>3&1]
	flag := b>>4&1 == 1
	switch b % 6 {
	case 0: // Inject, at or after the engine's clock or, with flag, out of order
		k := int(p.next()) % (len(p.traces) + 3)
		arrival := time.Duration(p.next()) * 250 * time.Microsecond
		if flag {
			arrival -= 10 * time.Millisecond // before the clock, or its start
		} else {
			arrival += e.Now()
		}
		r := &workload.Request{ID: len(p.ids), Arrival: arrival, SLO: time.Duration(p.next()+1) * time.Millisecond}
		if r.SLO == 256*time.Millisecond {
			r.SLO = math.MaxInt64 // a deadline past the range unless arrival is 0
		}
		switch {
		case k < len(p.traces):
			r.Trace = p.traces[k]
		case k == len(p.traces):
			// A trace with no layers, then one without sparsities; the
			// last choice is no trace.
			r.Trace = &trace.SampleTrace{Key: p.traces[0].Key}
		case k == len(p.traces)+1:
			r.Trace = &trace.SampleTrace{Key: p.traces[0].Key, LayerLatency: p.traces[0].LayerLatency}
		}
		if err := e.Inject(r, e.Now()); err == nil {
			p.injected++
			p.ids = append(p.ids, r.ID)
		}
	case 1: // Step
		_, _ = e.Step() // a drained engine refuses, with an error
	case 2: // Extract, by a known ID or, past the first 200 choices, an unknown one
		id := -1 - int(p.next())
		if c := p.next(); c < 200 && len(p.ids) > 0 {
			id = p.ids[int(c)%len(p.ids)]
		}
		if t, err := e.Extract(id); err == nil {
			p.held = append(p.held, t)
		}
	case 3: // Crash at the engine's clock
		queued, started, err := e.Crash(e.Now())
		if err == nil {
			p.held = append(append(p.held, queued...), started...)
		}
	case 4: // Adopt a held task, restarting a started one first with flag
		c := p.next()
		if c >= 200 {
			// Past the first 200 choices, a task an engine still owns,
			// queued or pending, which Adopt must refuse.
			if m := p.engines[c&1].Migratable(); len(m) > 0 {
				_ = e.Adopt(m[int(c)%len(m)], e.Now())
			}
			return
		}
		if len(p.held) == 0 {
			return
		}
		i := int(c) % len(p.held)
		t := p.held[i]
		if flag && t.NextLayer > 0 {
			t.Restart()
		}
		if err := e.Adopt(t, e.Now()+time.Duration(p.next())*100*time.Microsecond); err == nil {
			p.held = append(p.held[:i], p.held[i+1:]...)
		}
	case 5: // Step whichever engine's next event comes first
		t0, ok0 := p.engines[0].NextEvent()
		t1, ok1 := p.engines[1].NextEvent()
		switch {
		case ok0 && (!ok1 || t0 <= t1):
			_, _ = p.engines[0].Step()
		case ok1:
			_, _ = p.engines[1].Step()
		}
	}
}

// check verifies the program's invariants between steps. Every task
// taken from the shared list is in exactly one place: free on the list,
// queued or running on one engine, or held by the program. Every
// request an engine accepted is completed once, outstanding on an
// engine or held. A bound backlog sum equals its scan.
func (p *engineProgram) check() error {
	free, n, held := sched.TaskList(p.engines[0])
	if len(free) != n {
		return fmt.Errorf("the task list counts %d free tasks and links %d", n, len(free))
	}
	where := map[*sched.Task]string{}
	place := func(t *sched.Task, at string) error {
		if was, ok := where[t]; ok {
			return fmt.Errorf("task %p (request %d) is both %s and %s", t, t.ID, was, at)
		}
		where[t] = at
		return nil
	}
	for _, t := range free {
		if err := place(t, "free"); err != nil {
			return err
		}
	}
	outstanding := 0
	for i, e := range p.engines {
		ts := sched.EngineTasks(e)
		outstanding += len(ts)
		for _, t := range ts {
			if err := place(t, fmt.Sprintf("on engine %d", i)); err != nil {
				return err
			}
		}
		if p.load != nil {
			if sum, scan := e.Backlog(), e.EstimatedBacklog(p.load); sum != scan {
				return fmt.Errorf("engine %d: backlog sum %v, scan %v", i, sum, scan)
			}
		}
	}
	for _, t := range p.held {
		if err := place(t, "held"); err != nil {
			return err
		}
	}
	if len(where) != held {
		return fmt.Errorf("the task list holds %d tasks, %d are accounted for", held, len(where))
	}
	done := 0
	for id, c := range p.completed {
		if c != 1 {
			return fmt.Errorf("request %d completed %d times", id, c)
		}
		done++
	}
	if done+outstanding+len(p.held) != p.injected {
		return fmt.Errorf("%d requests accepted, %d completed + %d outstanding + %d held",
			p.injected, done, outstanding, len(p.held))
	}
	return nil
}

// FuzzEngine decodes bytes into a program over two peer engines
// (NewEngine, NewPeer) sharing one task list, both running Dysta or both
// PREMA on hand-built traces, with or without a bound backlog estimate.
// Its steps inject requests (some without a trace, or with one that has
// no layer or no sparsities, some arriving before the engine's clock or
// its start, some with a deadline past the largest time.Duration), step either engine or the
// earlier one, extract by known and unknown IDs, crash an engine, and
// adopt extracted or crashed tasks into either engine, restarting a
// started one or not, or tasks an engine still owns. No step may panic, and check holds after each.
// At the end the engines drain, each Result conserves its outcomes, and
// the requests still held are the only ones not completed.
//
// Every trace carries a key the LUT has: Dysta reads its profile through
// StatsSet.MustLookup and PREMA through its Estimator, both documented
// to panic on a pair that was never profiled, a caller's bug that
// workload validation rules out before any run, so the program keeps to
// that precondition rather than treating such a key as input to refuse.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 8, 2, 3, 9, 1, 5, 5, 2, 1, 200, 4, 0, 0, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{1, 0, 1, 10, 20, 0, 2, 4, 40, 8, 3, 0, 0, 1, 1, 3, 12, 0, 0, 20, 0, 28, 1, 0, 5, 5, 5})
	f.Add([]byte{2, 0, 4, 0, 5, 0, 5, 0, 9, 1, 3, 16, 0, 0, 1, 1, 11, 5, 0, 30, 4, 0, 0, 5, 5, 5, 5})
	f.Add([]byte{3, 16, 0, 200, 3, 8, 1, 7, 9, 2, 0, 9, 13, 2, 0, 0, 5, 5, 2, 0, 0, 20, 1, 0, 5, 5})
	traces := fuzzTraces()
	reqs := make([]*workload.Request, len(traces))
	for i, tr := range traces {
		reqs[i] = &workload.Request{Trace: tr}
	}
	lut := sched.SynthLUT(reqs...)
	est := sched.NewEstimator(lut)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		head, data := data[0], data[1:min(len(data), 400)]
		p := &engineProgram{traces: traces, completed: map[int]int{}, data: data}
		newSched := func() sched.Scheduler { return core.NewDefault(lut) }
		if head&1 == 1 {
			newSched = func() sched.Scheduler { return sched.NewPREMA(est) }
		}
		opts := sched.Options{Observer: func(o sched.TaskOutcome) { p.completed[o.ID]++ }}
		if head&2 != 0 {
			p.load = est.Remaining
			opts.BacklogEstimator = p.load
		}
		p.engines[0] = sched.NewEngine(newSched(), opts)
		p.engines[1] = p.engines[0].NewPeer(newSched(), opts)
		for n := 0; len(p.data) > 0; n++ {
			b := p.next()
			p.step(b)
			if err := p.check(); err != nil {
				t.Fatalf("after step %d (op %#x): %v", n, b, err)
			}
		}
		for i, e := range p.engines {
			for !e.Drained() {
				if _, err := e.Step(); err != nil {
					t.Fatalf("draining engine %d: %v", i, err)
				}
			}
		}
		if err := p.check(); err != nil {
			t.Fatalf("after the drain: %v", err)
		}
		for i, e := range p.engines {
			res := e.Finish()
			if err := sched.CheckOutcomeConservation(res); err != nil {
				t.Fatalf("engine %d: %v", i, err)
			}
			if res.Dropped != 0 {
				t.Fatalf("engine %d dropped %d requests after its drain", i, res.Dropped)
			}
		}
	})
}
