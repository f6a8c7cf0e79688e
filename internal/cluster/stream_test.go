package cluster

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/stats"
	"sparsedysta/internal/workload"
)

// sortedCopy returns the stream in arrival order without mutating the
// caller's slice (RunStream consumes a pre-sorted source).
func sortedCopy(reqs []*workload.Request) []*workload.Request {
	s := append([]*workload.Request(nil), reqs...)
	workload.SortByArrival(s)
	return s
}

// reusingSource yields copies of a sorted request slice through one
// buffer it overwrites on every Next — the weakest form the
// RequestSource contract allows, which workload.Stream uses. A consumer
// that keeps a yielded pointer past the next Next reads a later request.
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

// byID routes every request by its ID alone, so a dispatch reading a
// request that a stale pointer has since overwritten (a failover
// re-dispatching through a kept pointer, say) lands on another engine
// and changes the schedule.
type byID struct{}

func (byID) Name() string { return "by-id" }

func (byID) Pick(sig []EngineSignal, r *workload.Request, _ time.Duration) int {
	return r.ID % len(sig)
}

// failoverRecorder wraps a dispatcher and checks the request every Pick
// sees. A request's first Pick records its ID, Arrival, SLO and trace
// pointer (whose trace carries its Key); any later Pick of the same ID
// is a failover, which re-dispatches a request the fault injector
// rebuilt from the displaced task (Task.Request), and must see the same
// values. No built-in dispatcher reads those fields, so only this
// catches a wrong rebuild. Reset, LoadFunc and CurveFunc forward to the
// wrapped dispatcher, so the run wires up exactly as it would without
// the wrapper.
type failoverRecorder struct {
	Dispatcher
	seen      map[int]workload.Request
	failovers int
	err       error
}

func (f *failoverRecorder) Reset() {
	if r, ok := f.Dispatcher.(resettable); ok {
		r.Reset()
	}
	f.seen = map[int]workload.Request{}
}

func (f *failoverRecorder) LoadFunc() func(*sched.Task) time.Duration {
	if lp, ok := f.Dispatcher.(loadProvider); ok {
		return lp.LoadFunc()
	}
	return nil
}

func (f *failoverRecorder) CurveFunc() func(*sched.Task) []time.Duration {
	if cp, ok := f.Dispatcher.(curveProvider); ok {
		return cp.CurveFunc()
	}
	return nil
}

func (f *failoverRecorder) Pick(sig []EngineSignal, r *workload.Request, now time.Duration) int {
	first, ok := f.seen[r.ID]
	if !ok {
		f.seen[r.ID] = *r
	} else {
		f.failovers++
		if f.err == nil && first != *r {
			f.err = fmt.Errorf("failover of request %d at %v re-dispatched %+v, first dispatched as %+v",
				r.ID, now, *r, first)
		}
	}
	return f.Dispatcher.Pick(sig, r, now)
}

// migratedTasks checks that the completed requests flagged Migrated are
// exactly the ones the cluster scored as migration wins or losses.
func migratedTasks(t *testing.T, label string, res Result) int {
	t.Helper()
	n := 0
	for _, o := range res.Tasks {
		if o.Migrated {
			n++
		}
	}
	if n != res.MigrationWins+res.MigrationLosses {
		t.Fatalf("%s: %d tasks flagged Migrated, but %d wins + %d losses",
			label, n, res.MigrationWins, res.MigrationLosses)
	}
	return n
}

// TestClusterRunStreamMatchesRun: feeding the cluster one request at a
// time through RunStream is byte-identical to the materialized Run — per
// engine, per task and on the timeline — for every scheduler and
// dispatcher, across plain, stale-signal, migrating and churning
// configurations, from a slice source and from a source that reuses one
// request buffer. This is the tentpole equivalence anchor: the streaming
// path changes memory behavior, never the schedule. The churning cells
// dispatch through a failoverRecorder, so every failover must rebuild
// the request it displaced exactly, and the migrating cells check the
// Migrated flag on every recorded task.
func TestClusterRunStreamMatchesRun(t *testing.T) {
	failovers, migrated := 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		reqs, est, lut := randomStream(seed, 60)
		horizon := reqs[len(reqs)-1].Arrival * 2
		plan, err := GenChurn(3, horizon, horizon/6, horizon/12, 100+seed)
		if err != nil {
			t.Fatal(err)
		}
		load := SparsityAwareLoad(lut, est)
		sources := map[string]func() sched.RequestSource{
			"slice":   func() sched.RequestSource { return sched.NewSliceSource(sortedCopy(reqs)) },
			"reusing": func() sched.RequestSource { return &reusingSource{reqs: sortedCopy(reqs)} },
		}
		for _, spec := range schedSpecs(est, lut) {
			for _, d := range append(dispatchers(est, lut), byID{}) {
				for name, mut := range map[string]func(*Config){
					"plain": func(*Config) {},
					"stale": func(c *Config) { c.SignalInterval = 3 * time.Millisecond },
					"stealing": func(c *Config) {
						c.Rebalance = Steal{Load: load}
						c.RebalanceInterval = 2 * time.Millisecond
						c.MigrationCost = time.Millisecond
					},
					"churning": func(c *Config) {
						c.Churn = &plan
						c.RetryMax = 2
						c.SignalInterval = 2 * time.Millisecond
						c.Dispatch = &failoverRecorder{Dispatcher: c.Dispatch}
					},
				} {
					cfg := Config{Engines: 3, Dispatch: d,
						Sched: sched.Options{RecordTimeline: true, RecordTasks: true}}
					mut(&cfg)
					rec, _ := cfg.Dispatch.(*failoverRecorder)
					check := func(label string, res Result) {
						t.Helper()
						if rec != nil {
							if rec.err != nil {
								t.Fatalf("%s (seed %d): %v", label, seed, rec.err)
							}
							failovers += rec.failovers
							rec.failovers = 0
						}
						migrated += migratedTasks(t, fmt.Sprintf("%s (seed %d)", label, seed), res)
					}
					want, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, cfg)
					if err != nil {
						t.Fatalf("%s/%s/%s (seed %d): %v", spec.name, d.Name(), name, seed, err)
					}
					check(spec.name+"/"+d.Name()+"/"+name, want)
					for srcName, src := range sources {
						got, err := RunStream(func(int) sched.Scheduler { return spec.mk() }, src(), cfg)
						if err != nil {
							t.Fatalf("%s/%s/%s/%s (seed %d): %v", spec.name, d.Name(), name, srcName, seed, err)
						}
						check(spec.name+"/"+d.Name()+"/"+name+"/"+srcName, got)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s/%s/%s (seed %d): streamed cluster diverges from materialized:\n%+v\nvs\n%+v",
								spec.name, d.Name(), name, srcName, seed, got, want)
						}
					}
				}
			}
		}
	}
	if failovers == 0 || migrated == 0 {
		t.Fatalf("the cells exercised %d failover picks and %d migrated completions, want both > 0",
			failovers, migrated)
	}
}

// TestClusterRunStreamRejectsUnsorted: a source that yields arrivals out
// of order must fail the run instead of silently rewriting history,
// while Run over the same slice runs a stably sorted copy of it, equal
// to Run over its stable sort, and leaves the caller's slice in its
// order.
func TestClusterRunStreamRejectsUnsorted(t *testing.T) {
	reqs, est, _ := randomStream(3, 10)
	reqs[0], reqs[len(reqs)-1] = reqs[len(reqs)-1], reqs[0] // break the order
	_, err := RunStream(func(int) sched.Scheduler { return sched.NewFCFS() },
		sched.NewSliceSource(reqs), Config{Engines: 2})
	if err == nil {
		t.Fatal("unsorted stream accepted")
	}
	order := append([]*workload.Request(nil), reqs...)
	sjf := func(int) sched.Scheduler { return sched.NewSJF(est) }
	want, err := Run(sjf, sortedCopy(reqs), Config{Engines: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(sjf, reqs, Config{Engines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Run over an unsorted slice diverges from Run over its stable sort:\n%+v\nvs\n%+v", got, want)
	}
	if !reflect.DeepEqual(reqs, order) {
		t.Error("Run reordered the caller's slice")
	}
}

// TestClusterRejectsNegativeArrivals: every engine's clock starts at 0,
// so Run and RunStream must reject a request arriving before it with an
// error naming the request and its arrival, just before 0 and well
// before it.
func TestClusterRejectsNegativeArrivals(t *testing.T) {
	fcfs := func(int) sched.Scheduler { return sched.NewFCFS() }
	for _, at := range []time.Duration{-1, -5 * time.Millisecond} {
		reqs, _, _ := randomStream(3, 10)
		reqs[0].Arrival = at
		want := fmt.Sprintf("request 0 arrives at %v", at)
		for name, run := range map[string]func() error{
			"Run":       func() error { _, err := Run(fcfs, reqs, Config{Engines: 2}); return err },
			"RunStream": func() error { _, err := RunStream(fcfs, sched.NewSliceSource(reqs), Config{Engines: 2}); return err },
		} {
			if err := run(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with the first arrival at %v: got %v, want an error containing %q", name, at, err, want)
			}
		}
	}
}

// TestClusterRequestWithoutTraceFails: a request with no trace fails
// Run and RunStream with an error naming it, alone or mid-stream, before
// any dispatcher or engine reads it, instead of panicking.
func TestClusterRequestWithoutTraceFails(t *testing.T) {
	fcfs := func(int) sched.Scheduler { return sched.NewFCFS() }
	reqs, _, _ := randomStream(3, 10)
	mid := *reqs[4]
	mid.Trace = nil
	for _, c := range []struct {
		name string
		reqs []*workload.Request
		id   int
	}{
		{"alone", []*workload.Request{{ID: 7, SLO: 1}}, 7},
		{"mid-stream", append(append(reqs[:4:4], &mid), reqs[5:]...), mid.ID},
	} {
		want := fmt.Sprintf("request %d has no trace", c.id)
		for name, run := range map[string]func() (Result, error){
			"Run": func() (Result, error) { return Run(fcfs, c.reqs, Config{Engines: 2}) },
			"RunStream": func() (Result, error) {
				return RunStream(fcfs, sched.NewSliceSource(c.reqs), Config{Engines: 2})
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

// captureNeutral zeroes what legitimately differs between full and
// bounded capture: the percentiles (exact order statistics vs histogram
// buckets) and the capture payloads, on the cluster result and on every
// PerEngine entry.
func captureNeutral(r Result) Result {
	neutral := func(s *sched.Result) {
		s.P50Latency, s.P95Latency, s.P99Latency = 0, 0, 0
		s.Tasks, s.Timeline, s.Exemplars = nil, nil, nil
	}
	neutral(&r.Result)
	r.PerEngine = append([]sched.Result(nil), r.PerEngine...)
	for i := range r.PerEngine {
		neutral(&r.PerEngine[i])
	}
	return r
}

// TestClusterBoundedCaptureMatchesFull: both capture modes fold the same
// completions in the same global order through one aggregator, so a
// bounded run equals its full-capture twin exactly — every counter, every
// float mean, per-model tallies, migration wins and losses, per engine
// and cluster-wide — once the percentiles and the capture payloads are
// set aside. Bounded capture still records no per-request structures.
func TestClusterBoundedCaptureMatchesFull(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		reqs, est, lut := randomStream(seed, 80)
		load := SparsityAwareLoad(lut, est)
		for _, spec := range schedSpecs(est, lut) {
			for name, mut := range map[string]func(*Config){
				"plain": func(*Config) {},
				"stealing": func(c *Config) {
					c.Rebalance = Steal{Load: load}
					c.RebalanceInterval = 2 * time.Millisecond
					c.MigrationCost = time.Millisecond
				},
			} {
				full := Config{Engines: 3, Dispatch: NewJSQ(),
					Sched: sched.Options{RecordTasks: true, RecordTimeline: true}}
				mut(&full)
				bounded := full
				bounded.Sched = sched.Options{BoundedCapture: true, Exemplars: 16, ExemplarSeed: 5}
				mut(&bounded)
				want, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, full)
				if err != nil {
					t.Fatalf("%s/%s full (seed %d): %v", spec.name, name, seed, err)
				}
				got, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, bounded)
				if err != nil {
					t.Fatalf("%s/%s bounded (seed %d): %v", spec.name, name, seed, err)
				}
				label := spec.name + "/" + name
				if g, w := captureNeutral(got), captureNeutral(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s (seed %d): bounded capture diverges from full beyond percentiles:\n%+v\nvs\n%+v",
						label, seed, g, w)
				}
				if got.Tasks != nil || got.Timeline != nil {
					t.Fatalf("%s (seed %d): bounded capture retained per-request structures", label, seed)
				}
				if len(got.Exemplars) == 0 || len(got.Exemplars) > 16 {
					t.Fatalf("%s (seed %d): exemplar reservoir has %d entries", label, seed, len(got.Exemplars))
				}
			}
		}
	}
}

// exactQuantile is the nearest-rank order statistic the histogram's
// Quantile approximates: the smallest value with at least ceil(p/100*n)
// observations at or below it.
func exactQuantile(lat []time.Duration, p float64) time.Duration {
	rank := int(math.Ceil(p / 100 * float64(len(lat))))
	if rank < 1 {
		rank = 1
	}
	return lat[rank-1]
}

// TestBoundedPercentilesWithinBucket is the streaming-percentile property
// test: across schedulers, dispatchers and seeds, every bounded-capture
// percentile must sit at or above the exact sorted order statistic of the
// same run's latencies, within one histogram bucket width (~3%). A 10k-
// request run checks the bound holds at depth, not just on toy streams.
func TestBoundedPercentilesWithinBucket(t *testing.T) {
	check := func(label string, got sched.Result, tasks []sched.TaskOutcome) {
		t.Helper()
		lat := make([]time.Duration, len(tasks))
		for i, o := range tasks {
			lat[i] = o.Completion - o.Arrival
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		var h stats.DurationHist
		for p, est := range map[float64]time.Duration{
			50: got.P50Latency, 95: got.P95Latency, 99: got.P99Latency,
		} {
			exact := exactQuantile(lat, p)
			if est < exact {
				t.Errorf("%s: P%.0f %v below the exact order statistic %v", label, p, est, exact)
			}
			if width := h.WidthAt(exact); est-exact > width {
				t.Errorf("%s: P%.0f %v is more than one bucket width (%v) above the exact %v",
					label, p, est, width, exact)
			}
		}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		reqs, est, lut := randomStream(seed, 120)
		for _, spec := range schedSpecs(est, lut) {
			for _, d := range dispatchers(est, lut) {
				full := Config{Engines: 3, Dispatch: d, Sched: sched.Options{RecordTasks: true}}
				want, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, full)
				if err != nil {
					t.Fatalf("%s/%s (seed %d): %v", spec.name, d.Name(), seed, err)
				}
				bounded := full
				bounded.Sched = sched.Options{BoundedCapture: true}
				got, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, bounded)
				if err != nil {
					t.Fatalf("%s/%s (seed %d): %v", spec.name, d.Name(), seed, err)
				}
				check(spec.name+"/"+d.Name(), got.Result, want.Tasks)
			}
		}
	}
	// Depth: one 10k-request streamed run against its materialized
	// full-capture twin.
	reqs, est, lut := randomStream(99, 10000)
	full := Config{Engines: 4, Dispatch: NewLeastLoad("sparse-load", SparsityAwareLoad(lut, est)),
		Sched: sched.Options{RecordTasks: true}}
	want, err := Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs, full)
	if err != nil {
		t.Fatal(err)
	}
	bounded := full
	bounded.Dispatch = NewLeastLoad("sparse-load", SparsityAwareLoad(lut, est))
	bounded.Sched = sched.Options{BoundedCapture: true}
	got, err := RunStream(func(int) sched.Scheduler { return sched.NewSJF(est) },
		sched.NewSliceSource(sortedCopy(reqs)), bounded)
	if err != nil {
		t.Fatal(err)
	}
	check("SJF/sparse-load/10k", got.Result, want.Tasks)
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

// TestClusterLenHintChangesNoResult: the cluster sizes its aggregator
// from the source's Len and nothing else reads it, so RunStream over a
// source whose Len is exact, missing, 0, -1, half or double the stream
// returns Run's Result, for every lineup scheduler, on a cluster with SLO
// admission, work stealing, churn, autoscaling and RecordTasks all on.
func TestClusterLenHintChangesNoResult(t *testing.T) {
	reqs, est, lut := randomStream(4, 150)
	reqs = sortedCopy(reqs)
	load, curve := SparsityAwareLoad(lut, est), SparsityAwareCurve(lut, est)
	horizon := reqs[len(reqs)-1].Arrival * 2
	plan, err := GenChurn(4, horizon, horizon/6, horizon/12, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Engines:           4,
		Dispatch:          NewLeastLoad("load", load).WithCurve(curve),
		Admission:         SLOShed{Iso: RequestIsolated(lut, est), Load: load, Curve: curve},
		SignalInterval:    time.Millisecond,
		Rebalance:         Steal{Load: load, Curve: curve},
		RebalanceInterval: time.Millisecond,
		MigrationCost:     200 * time.Microsecond,
		Churn:             &plan,
		RetryMax:          3,
		Autoscale: &Autoscaler{Min: 1, Max: 4, Up: 5 * time.Millisecond, Down: time.Millisecond,
			Cooldown: 5 * time.Millisecond, Load: load, Curve: curve},
		Sched: sched.Options{RecordTasks: true},
	}
	var rejected, migrations, failovers, scaled int
	for _, spec := range schedSpecs(est, lut) {
		mk := func(int) sched.Scheduler { return spec.mk() }
		want, err := Run(mk, reqs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		rejected += want.Rejected
		migrations += want.Migrations
		failovers += want.Failovers
		scaled += want.ScaleUps + want.ScaleDowns
		for name, src := range lenHints(reqs) {
			got, err := RunStream(mk, src(), cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.name, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: a %s Len changed the result:\n%+v\nvs\n%+v", spec.name, name, got, want)
			}
		}
	}
	if rejected == 0 || migrations == 0 || failovers == 0 || scaled == 0 {
		t.Errorf("the runs made %d rejections, %d migrations, %d failovers and %d scaling actions, want each > 0",
			rejected, migrations, failovers, scaled)
	}
}
