package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/traffic"
	"sparsedysta/internal/workload"
)

// freshCell runs one cell on a new gridWorker, so its stream, runner and
// scheduler are new: workload.NewStream's, sched.RunStream's and
// spec.New's. It is the cell a grid worker's warm cells must match.
func (p *Pipeline) freshCell(spec SchedSpec, pt Point, seed int, opts Options, rec *traffic.Replay) (sched.Result, error) {
	w := gridWorker{scheds: make([]sched.Scheduler, 1)}
	return p.runCell(spec, pt, seed, opts, rec, &w, 0, nil)
}

// RunSeeds is the grid runner's sequential oracle: one spec's cells at
// one (rate, SLO-multiplier) operating point, in seed order, each built
// from nothing (freshCell). Every grid's cells, and their averages under
// sched.AverageResults, must match it bit for bit.
func (p *Pipeline) RunSeeds(spec SchedSpec, rate, mslo float64, opts Options) ([]sched.Result, error) {
	if err := opts.checkPolicyNames(); err != nil {
		return nil, err
	}
	rec, err := opts.recording()
	if err != nil {
		return nil, err
	}
	rs := make([]sched.Result, 0, opts.Seeds)
	for s := range opts.Seeds {
		res, err := p.freshCell(spec, Point{Rate: rate, MSLO: mslo}, s, opts, rec)
		if err != nil {
			return nil, err
		}
		rs = append(rs, res)
	}
	return rs, nil
}

// TestParallelRunnerMatchesSequential: the worker-pool grid runner must
// produce byte-identical Results to the sequential reference path
// (RunSeeds + AverageResults, which builds every cell from nothing) for
// a fixed seed protocol, regardless of worker count: every cell's Result
// in the grid's slab is reflect.DeepEqual to its RunSeeds result, and
// every average to AverageResults of those, down to the per-model
// breakdowns the grid cuts from its slabs. A grid worker re-arms one
// engine for all its cells and reruns each spec's emptied scheduler, so
// the grids cover both pipelines (AttNN on Sanger, CNN on Eyeriss), the
// lineup with the Oracle and Dysta-w/o-sparse, and points ordered
// overloaded first, so that a worker's later cells run on the storage
// and schedulers a deep queue grew. The rotating spec keeps run state
// and is no sched.TaskExtractor: each of its cells must get a new
// scheduler.
func TestParallelRunnerMatchesSequential(t *testing.T) {
	opts := tiny()
	opts.Seeds = 3
	specs := append(WithOracle(StandardScheds()),
		SchedSpec{"Dysta-w/o-sparse", func(p *Pipeline) sched.Scheduler { return core.NewWithoutSparse(p.LUT) }},
		SchedSpec{"rotating", func(*Pipeline) sched.Scheduler { return &rotating{} }})
	for _, c := range []struct {
		sc    workload.Scenario
		rates []float64
	}{
		{workload.MultiAttNN(), []float64{60, 30, 20}},
		{workload.MultiCNN(), []float64{8, 2}},
	} {
		p, err := NewPipeline(c.sc, opts, 7)
		if err != nil {
			t.Fatal(err)
		}
		iso, err := workload.MeanIsolated(p.Scenario, p.Eval)
		if err != nil {
			t.Fatal(err)
		}
		if load := c.rates[0] * iso.Seconds(); load <= 1.3 {
			t.Fatalf("%s: the first point offers %.2f engines of work, want > 1.3", c.sc.Name, load)
		}
		points := RatePoints(c.rates, 10)

		// Sequential reference.
		want := make([]map[string]sched.Result, len(points))
		wantSeeds := make([]map[string][]sched.Result, len(points))
		for pi, pt := range points {
			want[pi] = map[string]sched.Result{}
			wantSeeds[pi] = map[string][]sched.Result{}
			for _, spec := range specs {
				rs, err := p.RunSeeds(spec, pt.Rate, pt.MSLO, opts)
				if err != nil {
					t.Fatal(err)
				}
				wantSeeds[pi][spec.Name] = rs
				avg, err := sched.AverageResults(rs)
				if err != nil {
					t.Fatal(err)
				}
				avg.Scheduler = spec.Name
				want[pi][spec.Name] = avg
			}
		}

		for _, workers := range []int{1, 4, 16} {
			par := opts
			par.Workers = workers
			g, err := p.runGrid(specs, points, par)
			if err != nil {
				t.Fatal(err)
			}
			for pi, pt := range points {
				// Byte-level comparison: any float divergence (reordered
				// accumulation, a different seed derivation) must surface.
				a, err := json.Marshal(want[pi])
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(g.points[pi].Results)
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Errorf("%s at %v req/s, workers=%d: parallel results diverge from sequential:\n%s\nvs\n%s",
						c.sc.Name, pt.Rate, workers, a, b)
				}
				if !reflect.DeepEqual(g.points[pi].Results, want[pi]) {
					t.Errorf("%s at %v req/s, workers=%d: averages are not reflect.DeepEqual to the sequential ones",
						c.sc.Name, pt.Rate, workers)
				}
				for si, spec := range specs {
					if got := g.seedsOf(pi, si); !reflect.DeepEqual(got, wantSeeds[pi][spec.Name]) {
						t.Errorf("%s %s at %v req/s, workers=%d: cells %+v, RunSeeds %+v",
							c.sc.Name, spec.Name, pt.Rate, workers, got, wantSeeds[pi][spec.Name])
					}
				}
			}
		}
	}
}

// TestGridSeedsMatchRunSeeds: a one-point grid's per-seed results,
// breakdowns included, are reflect.DeepEqual to the sequential
// RunSeeds' for every spec of the lineup with the Oracle, on both
// pipelines and at -workers 1, 4 and 16; their average under the spec's
// name is the grid's average and RunPoint's result, as is AverageResults
// of RunSeeds'. Table 5 takes its means, its seed-spread note and its
// paired notes from one such grid per workload (table5Grids).
func TestGridSeedsMatchRunSeeds(t *testing.T) {
	opts := tiny()
	opts.Seeds = 3
	specs := WithOracle(StandardScheds())
	for _, c := range []struct {
		sc   workload.Scenario
		rate float64
	}{
		{workload.MultiAttNN(), 30},
		{workload.MultiCNN(), 3},
	} {
		p, err := NewPipeline(c.sc, opts, 7)
		if err != nil {
			t.Fatal(err)
		}
		point, err := p.RunPoint(specs, c.rate, 10, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][]sched.Result{}
		for _, spec := range specs {
			if want[spec.Name], err = p.RunSeeds(spec, c.rate, 10, opts); err != nil {
				t.Fatal(err)
			}
			ref, err := sched.AverageResults(want[spec.Name])
			if err != nil {
				t.Fatal(err)
			}
			ref.Scheduler = spec.Name
			if !reflect.DeepEqual(ref, point[spec.Name]) {
				t.Errorf("%s %s: RunSeeds' average %+v, RunPoint %+v", c.sc.Name, spec.Name, ref, point[spec.Name])
			}
		}
		for _, workers := range []int{1, 4, 16} {
			o := opts
			o.Workers = workers
			g, err := p.runGrid(specs, []Point{{Rate: c.rate, MSLO: 10}}, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.points) != 1 || len(g.points[0].Results) != len(specs) {
				t.Fatalf("%s: %d points, want 1 of %d schedulers", c.sc.Name, len(g.points), len(specs))
			}
			for si, spec := range specs {
				seeds := g.seedsOf(0, si)
				if !reflect.DeepEqual(seeds, want[spec.Name]) {
					t.Errorf("%s %s, workers=%d: per-seed results differ from RunSeeds'", c.sc.Name, spec.Name, workers)
				}
				avg, err := sched.AverageResults(seeds)
				if err != nil {
					t.Fatal(err)
				}
				avg.Scheduler = spec.Name
				if !reflect.DeepEqual(avg, point[spec.Name]) || !reflect.DeepEqual(avg, g.points[0].Results[spec.Name]) {
					t.Errorf("%s %s, workers=%d: average %+v, RunPoint %+v, grid %+v",
						c.sc.Name, spec.Name, workers, avg, point[spec.Name], g.points[0].Results[spec.Name])
				}
			}
		}
	}
}

// resultSink keeps a measured map reachable, so building it allocates.
var resultSink map[string]sched.Result

// TestRunGridResultSlab: RunGrid keeps every cell's Result in one slab
// per call, and cuts the cells' and the averages' per-model breakdowns
// from two more, so each operating point a warm grid adds costs only its
// result map. The grid used to add a slot slice per (point, spec) and
// one more per point, and then its cells' breakdowns (one allocation
// each) and its averaged breakdowns (one per spec). The points are
// identical, so every cell runs on storage the grid's first point grew.
func TestRunGridResultSlab(t *testing.T) {
	opts := tiny()
	opts.Seeds, opts.Workers = 2, 1
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := WithOracle(StandardScheds())
	grid := func(n int) float64 {
		points := RatePoints(slices.Repeat([]float64{30}, n), 10)
		return testing.AllocsPerRun(3, func() {
			if _, err := p.RunGrid(specs, points, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	resultMap := testing.AllocsPerRun(3, func() {
		m := make(map[string]sched.Result, len(specs))
		for _, spec := range specs {
			m[spec.Name] = sched.Result{}
		}
		resultSink = m
	})
	if got := grid(3) - grid(2); got != resultMap {
		t.Errorf("a grid point adds %v allocations, want %v (the result map)", got, resultMap)
	}
}

// TestGridBreakdownsAreCapped: every direct cell's breakdown and every
// average's is cut from a slab of one slot per cell or per (point,
// spec), and capped at its length, so appending to one never writes
// into another's slot; each (point, spec) pair's per-seed results are
// capped in the grid's result slab the same way. The appends run in
// slab order, each checked against a copy of every breakdown, and of
// the result slab, taken before any of them.
func TestGridBreakdownsAreCapped(t *testing.T) {
	opts := tiny()
	opts.Seeds = 2
	p, err := NewPipeline(workload.MultiCNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := StandardScheds()[:3]
	points := RatePoints([]float64{2, 3}, 10)
	g, err := p.runGrid(specs, points, opts)
	if err != nil {
		t.Fatal(err)
	}
	var breakdowns [][]sched.ModelMetrics
	for _, r := range g.cells {
		breakdowns = append(breakdowns, r.PerModel)
	}
	for _, pr := range g.points {
		for _, spec := range specs {
			breakdowns = append(breakdowns, pr.Results[spec.Name].PerModel)
		}
	}
	kept := make([][]sched.ModelMetrics, len(breakdowns))
	for i, b := range breakdowns {
		if len(b) == 0 {
			t.Fatalf("breakdown %d is empty", i)
		}
		kept[i] = slices.Clone(b)
	}
	for i, b := range breakdowns {
		_ = append(b, sched.ModelMetrics{Model: "appended", Requests: -1})
		for j := range breakdowns {
			if !slices.Equal(breakdowns[j], kept[j]) {
				t.Fatalf("appending to breakdown %d changed breakdown %d: %+v, was %+v", i, j, breakdowns[j], kept[j])
			}
		}
	}
	cells := slices.Clone(g.cells)
	for pi := range points {
		for si, spec := range specs {
			_ = append(g.seedsOf(pi, si), sched.Result{Scheduler: "appended"})
			if !reflect.DeepEqual(g.cells, cells) {
				t.Fatalf("appending to %s's seeds at point %d changed the grid's cells", spec.Name, pi)
			}
		}
	}
}

// negativeDuration matches a negative time.Duration as it prints.
var negativeDuration = regexp.MustCompile(`-[0-9]+h[0-9]+m`)

// TestArrivalsPastDurationFailTheCell: a rate whose arrivals or spans
// pass 2^63 ns, the largest time.Duration, fails its cell with one
// error that names the rate, or the arrival at the saturated clock,
// and prints no negative duration. Each used to wrap negative and fail
// with an error about a negative arrival or dwell time or period.
func TestArrivalsPastDurationFailTheCell(t *testing.T) {
	opts := tiny()
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	dysta := StandardScheds()[5]
	for _, c := range []struct {
		traffic  string
		rate     float64
		requests int
		want     string
	}{
		{"", 1e-300, 3, "poisson rate 1e-300 req/s has a mean gap of 1e+300s"},
		{"mmpp", 1e-300, 3, "-traffic mmpp at rate 1e-300 req/s: mean burst of 2e+301s"},
		{"diurnal", 1e-300, 3, "-traffic diurnal at rate 1e-300 req/s: period of 3e+300s"},
		// The mean gap fits, but the clock passes the largest duration.
		{"", 1e-9, 20, "arrives at or past the largest time.Duration"},
		{"poisson", 1e-9, 20, "arrives at or past the largest time.Duration"},
	} {
		o := opts
		o.Traffic, o.Requests = c.traffic, c.requests
		_, err := p.freshCell(dysta, Point{Rate: c.rate, MSLO: 10}, 0, o, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) || negativeDuration.MatchString(err.Error()) {
			t.Errorf("-traffic %q at %v req/s: error %v, want one naming %q and no negative duration",
				c.traffic, c.rate, err, c.want)
		}
	}
}

// rotating picks the ready task at its lifetime pick count modulo the
// queue length: it keeps run state and is no sched.TaskExtractor, so an
// instance that ran a cell schedules the next one unlike a new one.
type rotating struct{ picks int }

func (*rotating) Name() string                                             { return "rotating" }
func (*rotating) OnArrival(*sched.Task, time.Duration)                     {}
func (*rotating) OnLayerComplete(*sched.Task, int, float64, time.Duration) {}
func (r *rotating) PickNext(ready []*sched.Task, _ time.Duration) *sched.Task {
	r.picks++
	return ready[r.picks%len(ready)]
}

// TestRunGridShape: grid results come back ordered as the input points.
func TestRunGridShape(t *testing.T) {
	opts := tiny()
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	points := []Point{{Rate: 20, MSLO: 10}, {Rate: 30, MSLO: 10}, {Rate: 30, MSLO: 40}}
	grid, err := p.RunGrid(StandardScheds()[:2], points, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(points) {
		t.Fatalf("grid has %d points, want %d", len(grid), len(points))
	}
	for i, pr := range grid {
		if pr.Point != points[i] {
			t.Errorf("grid[%d].Point = %+v, want %+v", i, pr.Point, points[i])
		}
		if len(pr.Results) != 2 {
			t.Errorf("grid[%d] has %d results", i, len(pr.Results))
		}
	}
	if _, err := p.RunGrid(StandardScheds()[:1], points, Options{}); err == nil {
		t.Error("zero-seed grid accepted")
	}
	// A cell that fails mid-grid fails the grid with its error, at any
	// worker count.
	bad := []Point{{Rate: 30, MSLO: 10}, {Rate: 1e-300, MSLO: 10}, {Rate: 20, MSLO: 10}}
	for _, workers := range []int{1, 4, 16} {
		o := opts
		o.Workers = workers
		if _, err := p.RunGrid(StandardScheds()[:2], bad, o); err == nil || !strings.Contains(err.Error(), "rate 1e-300") {
			t.Errorf("workers=%d: a grid with a failing cell returned error %v", workers, err)
		}
	}
}

// TestStandardSchedsIncrementalEquivalence: every scheduler of the
// paper's Table 5 lineup — including Dysta, whose incremental path caches
// predictor-derived score components — must produce bit-identical
// schedules on the incremental and reference engine paths over a real
// generated workload.
func TestStandardSchedsIncrementalEquivalence(t *testing.T) {
	opts := tiny()
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
		Requests: 200, RatePerSec: 30, SLOMultiplier: 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	record := sched.Options{RecordTimeline: true, RecordTasks: true}
	reference := record
	reference.ReferencePick = true

	// Dysta config variants: every ablation ships results through the
	// cachedScore fast path, so each non-default branch (gamma strategy,
	// coefficient space, static-only, literal Alg. 3, knob extremes)
	// must also match the reference scoring.
	variants := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"Dysta/last-n", func(c *core.Config) { c.Strategy = core.LastN }},
		{"Dysta/average-all", func(c *core.Config) { c.Strategy = core.AverageAll }},
		{"Dysta/density-ratio", func(c *core.Config) { c.Mode = core.DensityRatio }},
		{"Dysta/w-o-sparse", func(c *core.Config) { c.DynamicEnabled = false }},
		{"Dysta/literal-alg3", func(c *core.Config) { c.LiteralAlg3 = true }},
		{"Dysta/eta-0", func(c *core.Config) { c.Eta = 0 }},
		{"Dysta/no-demotion", func(c *core.Config) { c.DemotionMS = 0; c.PenaltyWeight = 100 }},
	}
	specs := WithOracle(StandardScheds())
	for _, v := range variants {
		cfg := core.DefaultConfig()
		v.mut(&cfg)
		specs = append(specs, SchedSpec{Name: v.name, New: func(p *Pipeline) sched.Scheduler {
			return core.New(cfg, p.LUT)
		}})
	}

	for _, spec := range specs {
		if _, ok := spec.New(p).(sched.IncrementalScheduler); !ok {
			t.Fatalf("%s does not implement IncrementalScheduler", spec.Name)
		}
		fast, err := sched.Run(spec.New(p), reqs, record)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sched.Run(spec.New(p), reqs, reference)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("%s: incremental and reference schedules diverge", spec.Name)
		}
	}
}

// replayTraffic writes n arrivals, one every gap, to a CSV in a
// temporary directory and returns the -traffic value that replays it.
func replayTraffic(t *testing.T, n int, gap time.Duration) string {
	t.Helper()
	arrivals := make([]time.Duration, n)
	for i := range arrivals {
		arrivals[i] = time.Duration(i+1) * gap
	}
	var buf bytes.Buffer
	if err := traffic.WriteArrivalsCSV(&buf, arrivals); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "arrivals.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return replayPrefix + path
}

// TestWarmGridCellAllocatesOnlyItsResult: a grid worker's warm direct
// cell re-arms the worker's stream, its engine and the spec's emptied
// scheduler, and cuts its Result's per-model breakdown from the slot
// the grid hands it, so it makes no allocation, for every scheduler of
// the lineup and at any request count; without a slot it makes 1, the
// breakdown. Each cell used to build its stream (4 allocations) and a
// throwaway round-robin dispatcher, to check the -dispatch name, and
// the breakdown was a map (2). A replay grid reads its trace once per
// call (Options.recording) and the worker replays the shared gaps
// through its own cursor, so a warm replay cell makes the same at any
// trace length; each cell used to parse the file again, 426
// allocations at 200 recorded arrivals and 40,038 at 20,000.
func TestWarmGridCellAllocatesOnlyItsResult(t *testing.T) {
	opts := tiny()
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := WithOracle(StandardScheds())
	pt := Point{Rate: 30, MSLO: 10}
	slot := make([]sched.ModelMetrics, modelCount(p.Scenario))
	for _, tr := range []struct{ name, traffic string }{
		{"Poisson", ""},
		{"a replay of 200 arrivals", replayTraffic(t, 200, 30*time.Millisecond)},
		{"a replay of 20000 arrivals", replayTraffic(t, 20000, 30*time.Millisecond)},
	} {
		for _, n := range []int{120, 400} {
			o := opts
			o.Requests, o.Traffic = n, tr.traffic
			rec, err := o.recording()
			if err != nil {
				t.Fatal(err)
			}
			w := gridWorker{scheds: make([]sched.Scheduler, len(specs))}
			for si, spec := range specs {
				for _, c := range []struct {
					slot []sched.ModelMetrics
					want float64
				}{{slot, 0}, {nil, 1}} {
					cell := func() {
						if _, err := p.runCell(spec, pt, 1, o, rec, &w, si, c.slot); err != nil {
							t.Fatal(err)
						}
					}
					cell()
					if got := testing.AllocsPerRun(5, cell); got != c.want {
						t.Errorf("%s, %d requests, %s, slot of %d: a warm grid cell made %v allocations, want %v",
							spec.Name, n, tr.name, len(c.slot), got, c.want)
					}
				}
			}
		}
	}
}

// TestReplayGridDeterministicAcrossWorkers: the workers of a replay grid
// share one read-only recording, each through its own cursor, so the
// grid is reflect.DeepEqual at -workers 1 and 4, and equal to cells that
// each read the file themselves (freshCell without a recording).
func TestReplayGridDeterministicAcrossWorkers(t *testing.T) {
	opts := tiny()
	opts.Seeds = 2
	opts.Traffic = replayTraffic(t, 200, 25*time.Millisecond)
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := StandardScheds()
	points := []Point{{Rate: 30, MSLO: 10}, {Rate: 30, MSLO: 4}}
	var grids [][]PointResult
	for _, workers := range []int{1, 4} {
		o := opts
		o.Workers = workers
		grid, err := p.RunGrid(specs, points, o)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, grid)
	}
	if !reflect.DeepEqual(grids[0], grids[1]) {
		t.Errorf("replay grid diverges between -workers 1 and 4:\n%+v\nvs\n%+v", grids[0], grids[1])
	}
	for pi, pt := range points {
		for _, spec := range specs {
			rs := make([]sched.Result, opts.Seeds)
			for s := range rs {
				if rs[s], err = p.freshCell(spec, pt, s, opts, nil); err != nil {
					t.Fatal(err)
				}
			}
			want, err := sched.AverageResults(rs)
			if err != nil {
				t.Fatal(err)
			}
			want.Scheduler = spec.Name
			if got := grids[0][pi].Results[spec.Name]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s at point %d: the grid's shared recording gives %+v, cells reading the file give %+v",
					spec.Name, pi, got, want)
			}
		}
	}
}

// failingSource yields its stream's requests until after requests, then
// one that arrives before its predecessor, which fails the run there.
type failingSource struct {
	src   *workload.Stream
	after int
	n     int
	bad   workload.Request
}

func (f *failingSource) Next() (*workload.Request, bool) {
	r, ok := f.src.Next()
	if f.n++; f.n <= f.after || !ok {
		return r, ok
	}
	f.bad = *r
	f.bad.Arrival = 0
	return &f.bad, true
}

// TestGridWorkerFailedCell pins the rule for a cell that fails mid-run:
// the spec's slot is emptied, so its scheduler, which may still hold
// tasks, never runs another cell, and the next cell gets a new one from
// spec.New. The worker's stream, abandoned mid-run and re-armed, yields
// exactly what a new stream yields, and the next cell's Result is a
// fresh run's.
func TestGridWorkerFailedCell(t *testing.T) {
	opts := tiny()
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	built := 0
	spec := SchedSpec{"Dysta", func(p *Pipeline) sched.Scheduler { built++; return core.NewDefault(p.LUT) }}
	cfg := workload.GenConfig{Requests: opts.Requests, RatePerSec: 60, SLOMultiplier: 10, Seed: cellSeed(0)}
	w := gridWorker{scheds: make([]sched.Scheduler, 1)}
	src, err := w.stream(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.run(p, spec, 0, src, sched.Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if built != 1 || w.scheds[0] == nil {
		t.Fatalf("after a finished cell: %d schedulers built, slot kept %v; want 1 and the scheduler", built, w.scheds[0])
	}

	// At 60 req/s the engine holds a queue when the bad arrival comes.
	if src, err = w.stream(p, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := w.run(p, spec, 0, &failingSource{src: src, after: opts.Requests / 2}, sched.Options{}, nil); err == nil {
		t.Fatal("a run with an arrival before its predecessor's succeeded")
	}
	if built != 1 || w.scheds[0] != nil {
		t.Errorf("after a failed cell: %d schedulers built, slot kept %v; want 1 (the failed cell reran the first) and nil",
			built, w.scheds[0])
	}

	// The stream was left mid-run: re-armed, it restarts from the seed.
	next := cfg
	next.Seed = cellSeed(1)
	fresh, err := workload.NewStream(p.Scenario, p.Eval, next)
	if err != nil {
		t.Fatal(err)
	}
	if src, err = w.stream(p, next); err != nil {
		t.Fatal(err)
	}
	if src.Len() != fresh.Len() {
		t.Fatalf("re-armed stream has %d requests, a new one %d", src.Len(), fresh.Len())
	}
	for i := 0; ; i++ {
		a, aok := src.Next()
		b, bok := fresh.Next()
		if aok != bok {
			t.Fatalf("request %d: re-armed stream ok=%v, new stream ok=%v", i, aok, bok)
		}
		if !aok {
			break
		}
		if *a != *b {
			t.Fatalf("request %d: re-armed stream yields %+v, a new stream %+v", i, *a, *b)
		}
	}

	if src, err = w.stream(p, next); err != nil {
		t.Fatal(err)
	}
	got, err := w.run(p, spec, 0, src, sched.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if built != 2 {
		t.Errorf("the cell after the failed one built %d schedulers in all, want 2 (a new one)", built)
	}
	if fresh, err = workload.NewStream(p.Scenario, p.Eval, next); err != nil {
		t.Fatal(err)
	}
	want, err := sched.RunStream(core.NewDefault(p.LUT), fresh, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the cell after the failed one diverges from a fresh run (ANTT %v vs %v)", got.ANTT, want.ANTT)
	}
}
