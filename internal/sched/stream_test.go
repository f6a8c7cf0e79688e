package sched_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// streamFixture builds the shared workload for the streaming tests.
func streamFixture(t *testing.T, requests int, seed uint64) (*trace.StatsSet, []*workload.Request, workload.Scenario, *trace.Store, workload.GenConfig) {
	t.Helper()
	sc := workload.MultiAttNN()
	prof, eval, err := workload.BuildStores(sc, 20, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	lut, err := trace.NewStatsSet(prof)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.GenConfig{Requests: requests, RatePerSec: 40, SLOMultiplier: 10, Seed: seed}
	reqs, err := workload.Generate(sc, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lut, reqs, sc, eval, cfg
}

// reusingSource yields copies of a sorted request slice through one
// buffer it overwrites on every Next, the weakest form the
// RequestSource contract allows.
type reusingSource struct {
	reqs []*workload.Request
	next int
	buf  workload.Request
}

func (s *reusingSource) Next() (*workload.Request, bool) {
	if s.next >= len(s.reqs) {
		return nil, false
	}
	s.buf = *s.reqs[s.next]
	s.next++
	return &s.buf, true
}

// runUpFront is the injection strategy Run used before it streamed, kept
// as the oracle for lazy injection: every request of the sorted slice
// is injected before the engine takes its first step.
func runUpFront(s sched.Scheduler, reqs []*workload.Request, opts sched.Options) (sched.Result, error) {
	e := sched.NewEngine(s, opts)
	for _, r := range reqs {
		if err := e.Inject(r, r.Arrival); err != nil {
			return sched.Result{}, err
		}
	}
	for !e.Drained() {
		if _, err := e.Step(); err != nil {
			return sched.Result{}, err
		}
	}
	return e.Finish(), nil
}

// TestRunStreamMatchesRun pins the lazy-injection equivalence: driving
// the engine from an iterator — the request slice Run feeds, the
// workload's own Stream, or a source that reuses one request buffer —
// produces the byte-identical Result of injecting the whole slice up
// front, for every standard scheduler.
func TestRunStreamMatchesRun(t *testing.T) {
	lut, reqs, sc, eval, cfg := streamFixture(t, 400, 3)
	est := sched.NewEstimator(lut)
	mks := map[string]func() sched.Scheduler{
		"FCFS":  func() sched.Scheduler { return sched.NewFCFS() },
		"SJF":   func() sched.Scheduler { return sched.NewSJF(est) },
		"PREMA": func() sched.Scheduler { return sched.NewPREMA(est) },
		"SDRM3": func() sched.Scheduler { return sched.NewSDRM3(est) },
		"Dysta": func() sched.Scheduler { return core.NewDefault(lut) },
	}
	for name, mk := range mks {
		want, err := runUpFront(mk(), reqs, sched.Options{RecordTasks: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := workload.NewStream(sc, eval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for srcName, src := range map[string]sched.RequestSource{
			"slice":   sched.SortedSource(reqs),
			"stream":  st,
			"reusing": &reusingSource{reqs: reqs},
		} {
			got, err := sched.RunStream(mk(), src, sched.Options{RecordTasks: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: RunStream diverged from up-front injection:\n up-front: %+v\n stream:   %+v", name, srcName, want, got)
			}
		}
	}
}

// TestBoundedCaptureMatchesFull pins the bounded-memory metric
// contract: every Result field except the histogram-derived latency
// percentiles and the capture payloads (Tasks, Timeline, Exemplars) is
// bit-identical between full and bounded capture, and the bounded
// percentiles sit within one histogram bucket above the exact ones.
func TestBoundedCaptureMatchesFull(t *testing.T) {
	lut, reqs, _, _, _ := streamFixture(t, 400, 5)
	full, err := sched.Run(core.NewDefault(lut), reqs, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := sched.Run(core.NewDefault(lut), reqs,
		sched.Options{BoundedCapture: true, Exemplars: 16, ExemplarSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(bounded.Exemplars) != 16 {
		t.Fatalf("bounded run kept %d exemplars, want 16", len(bounded.Exemplars))
	}

	// Compare everything except the documented divergences.
	fullCmp, boundedCmp := full, bounded
	fullCmp.P50Latency, fullCmp.P95Latency, fullCmp.P99Latency = 0, 0, 0
	boundedCmp.P50Latency, boundedCmp.P95Latency, boundedCmp.P99Latency = 0, 0, 0
	fullCmp.Tasks, fullCmp.Timeline, fullCmp.Exemplars = nil, nil, nil
	boundedCmp.Tasks, boundedCmp.Timeline, boundedCmp.Exemplars = nil, nil, nil
	if !reflect.DeepEqual(fullCmp, boundedCmp) {
		t.Errorf("bounded capture diverged beyond percentiles:\n full:    %+v\n bounded: %+v", fullCmp, boundedCmp)
	}

	for _, p := range []struct {
		name        string
		exact, hist int64
	}{
		{"p50", int64(full.P50Latency), int64(bounded.P50Latency)},
		{"p95", int64(full.P95Latency), int64(bounded.P95Latency)},
		{"p99", int64(full.P99Latency), int64(bounded.P99Latency)},
	} {
		// One bucket width at the histogram value is at most hist/32+1;
		// the interpolated exact quantile can additionally sit up to one
		// order statistic below the nearest-rank one the histogram
		// brackets, so allow two widths.
		slack := 2 * (p.hist/32 + 1)
		if p.exact > p.hist || p.hist-p.exact > slack {
			t.Errorf("%s: bounded %d vs exact %d outside histogram error bound %d",
				p.name, p.hist, p.exact, slack)
		}
	}
}

// hintedSource reports n as its length whatever the stream holds.
type hintedSource struct {
	sched.RequestSource
	n int
}

func (s hintedSource) Len() int { return s.n }

// hiddenLen hides its source's Len: the embedded interface promotes
// Next alone.
type hiddenLen struct{ sched.RequestSource }

// lenHints returns, for each capacity hint a source can give, a maker of
// sources over the sorted reqs: the exact length, none, 0, -1, half and
// double.
func lenHints(reqs []*workload.Request) map[string]func() sched.RequestSource {
	exact := func() sched.RequestSource { return sched.NewSliceSource(reqs) }
	hint := func(n int) func() sched.RequestSource {
		return func() sched.RequestSource { return hintedSource{exact(), n} }
	}
	return map[string]func() sched.RequestSource{
		"exact":    exact,
		"hidden":   func() sched.RequestSource { return hiddenLen{exact()} },
		"zero":     hint(0),
		"negative": hint(-1),
		"half":     hint(len(reqs) / 2),
		"double":   hint(2 * len(reqs)),
	}
}

// TestLenHintChangesNoResult: a source's Len only sizes full capture, so
// RunStream over a source whose Len is exact, missing, 0, -1, half or
// double the stream returns Run's Result, for every lineup scheduler,
// with and without RecordTasks and under bounded capture.
func TestLenHintChangesNoResult(t *testing.T) {
	lut, reqs, _, _, _ := streamFixture(t, 300, 7)
	for name, mk := range lineup(lut) {
		for _, opts := range []sched.Options{{}, {RecordTasks: true}, {BoundedCapture: true, Exemplars: 8, ExemplarSeed: 2}} {
			want, err := sched.Run(mk(), reqs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for hint, src := range lenHints(reqs) {
				got, err := sched.RunStream(mk(), src(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%+v: a %s Len changed the result:\n got %+v\nwant %+v", name, opts, hint, got, want)
				}
			}
		}
	}
}

// TestRequestWithoutTraceFailsTheRun: a request with no trace fails the
// run with an error naming it, alone or mid-stream, through Run and
// RunStream alike (the check both streaming loops share), where the
// engine used to dereference the nil trace and panic.
func TestRequestWithoutTraceFailsTheRun(t *testing.T) {
	_, reqs, _, _, _ := streamFixture(t, 5, 1)
	mid := *reqs[2]
	mid.Trace = nil
	for _, c := range []struct {
		name string
		reqs []*workload.Request
		id   int
	}{
		{"alone", []*workload.Request{{ID: 7, SLO: 1}}, 7},
		{"mid-stream", append(append(reqs[:2:2], &mid), reqs[3:]...), mid.ID},
	} {
		want := fmt.Sprintf("request %d has no trace", c.id)
		for name, run := range map[string]func() (sched.Result, error){
			"Run": func() (sched.Result, error) { return sched.Run(sched.NewFCFS(), c.reqs, sched.Options{}) },
			"RunStream": func() (sched.Result, error) {
				return sched.RunStream(sched.NewFCFS(), sched.NewSliceSource(c.reqs), sched.Options{})
			},
		} {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s, %s: panicked: %v", c.name, name, p)
					}
				}()
				if _, err := run(); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s, %s: err %v, want one containing %q", c.name, name, err, want)
				}
			}()
		}
	}
}

// TestDeadlineOverflowFailsTheRun: a request whose arrival plus SLO
// passes the largest time.Duration fails the run with an error naming
// it (the check both streaming loops share), where its deadline used to
// wrap negative and count as violated. A deadline of exactly
// math.MaxInt64 still runs.
func TestDeadlineOverflowFailsTheRun(t *testing.T) {
	_, reqs, _, _, _ := streamFixture(t, 5, 1)
	last := *reqs[len(reqs)-1]
	for _, c := range []struct {
		slo time.Duration
		ok  bool
	}{
		{math.MaxInt64 - last.Arrival, true},
		{math.MaxInt64 - last.Arrival + 1, false},
		{math.MaxInt64, false},
	} {
		r := last
		r.SLO = c.slo
		run := append(reqs[:len(reqs)-1:len(reqs)-1], &r)
		res, err := sched.Run(sched.NewFCFS(), run, sched.Options{})
		if c.ok {
			if err != nil || res.Violations != 0 {
				t.Errorf("SLO %d: %d violations, err %v; want a clean run", c.slo, res.Violations, err)
			}
			continue
		}
		if want := fmt.Sprintf("request %d's deadline", r.ID); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("SLO %d: err %v, want one naming %q", c.slo, err, want)
		}
	}
}
