package exp

import (
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// heapLen reads the length of the sched.TaskHeap a scheduler keeps in
// the named unexported field.
func heapLen(s sched.Scheduler, field string) int {
	return reflect.ValueOf(s).Elem().FieldByName(field).FieldByName("tasks").Len()
}

// TestEmptiedSchedulerMatchesFresh pins the contract a crash's re-arm
// rests on: a scheduler emptied through OnExtract schedules exactly like
// a new one. For the Table 5 lineup, the Oracle and Dysta-w/o-sparse, an
// engine runs a stream at ~1.7x its capacity until it holds pending,
// delivered-but-unstarted and started requests, deep enough that Dysta's
// demoted heap, PREMA's crossed heap and Planaria's hopeless heap are in
// use; then it crashes, and a second stream runs on it to completion.
// The same stream on a new engine and scheduler must give a DeepEqual
// Result: under full capture with per-task outcomes and the timeline,
// and under bounded capture with exemplars. What survives the re-arm
// (Planaria's remMax, SDRM3's class order, the free lists and the grown
// heaps and queues) must change no pick.
func TestEmptiedSchedulerMatchesFresh(t *testing.T) {
	p, err := NewPipeline(workloadAttNN(), tiny(), 7)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(n int, rate float64, seed uint64) []*workload.Request {
		reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
			Requests: n, RatePerSec: rate, SLOMultiplier: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	first, second := gen(600, 50, 1), gen(300, 40, 2)
	// The crash lands before the first stream's last arrival, so part of
	// it is still pending.
	crashAt := first[400].Arrival
	// drive injects the stream up front (each request is delivered at
	// its arrival) and commits every event before until.
	drive := func(e *sched.Engine, reqs []*workload.Request, until time.Duration) {
		t.Helper()
		for _, r := range reqs {
			if err := e.Inject(r, 0); err != nil {
				t.Fatal(err)
			}
		}
		for {
			at, ok := e.NextEvent()
			if !ok || at >= until {
				return
			}
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const end = time.Duration(1<<63 - 1)
	// inUse names the heap each scheduler must have filled by the crash.
	inUse := map[string]string{"Dysta": "demoted", "Oracle": "demoted", "PREMA": "crossed", "Planaria": "hopeless"}
	specs := append(WithOracle(StandardScheds()), SchedSpec{"Dysta-w/o-sparse",
		func(p *Pipeline) sched.Scheduler { return core.NewWithoutSparse(p.LUT) }})
	for _, opts := range []sched.Options{
		{RecordTasks: true, RecordTimeline: true},
		{BoundedCapture: true, Exemplars: 16, ExemplarSeed: 3},
	} {
		for _, spec := range specs {
			name := spec.Name + "/full"
			if opts.BoundedCapture {
				name = spec.Name + "/bounded"
			}
			s := spec.New(p)
			e := sched.NewEngine(s, opts)
			drive(e, first, crashAt)
			if field, ok := inUse[spec.Name]; ok && heapLen(s, field) == 0 {
				t.Errorf("%s: %s heap empty at the crash; the queue is too shallow", name, field)
			}
			now := e.Now()
			queued, started, err := e.Crash(now)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pending, delivered := 0, 0
			for _, task := range queued {
				if task.Arrival > now {
					pending++
				} else {
					delivered++
				}
			}
			if pending == 0 || delivered == 0 || len(started) == 0 {
				t.Errorf("%s: crash displaced %d pending, %d delivered-but-unstarted and %d started requests; want each > 0",
					name, pending, delivered, len(started))
			}
			drive(e, second, end)
			fresh := sched.NewEngine(spec.New(p), opts)
			drive(fresh, second, end)
			got, want := e.Finish(), fresh.Finish()
			if got.Requests != len(second) {
				t.Fatalf("%s: re-armed engine completed %d of %d requests", name, got.Requests, len(second))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: re-armed engine diverges from a fresh one (ANTT %v vs %v, %d vs %d preemptions)",
					name, got.ANTT, want.ANTT, got.Preemptions, want.Preemptions)
			}
		}
	}
}
