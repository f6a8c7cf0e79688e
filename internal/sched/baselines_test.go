package sched

import (
	"testing"
	"time"

	"sparsedysta/internal/workload"
)

func tasksOf(reqs ...*workload.Request) []*Task {
	ts := make([]*Task, len(reqs))
	for i, r := range reqs {
		ts[i] = newTask(r)
	}
	return ts
}

func TestFCFSPicksEarliest(t *testing.T) {
	ready := tasksOf(
		synthReq(0, "a", 20*time.Millisecond, time.Millisecond, 1, 10),
		synthReq(1, "b", 10*time.Millisecond, time.Millisecond, 1, 10),
	)
	if got := NewFCFS().PickNext(ready, 0); got != ready[1] {
		t.Errorf("FCFS picked task %d", got.ID)
	}
}

func TestFCFSTieBreaksOnID(t *testing.T) {
	ready := tasksOf(
		synthReq(5, "a", 10*time.Millisecond, time.Millisecond, 1, 10),
		synthReq(2, "b", 10*time.Millisecond, time.Millisecond, 1, 10),
	)
	if got := NewFCFS().PickNext(ready, 0); got.ID != 2 {
		t.Errorf("FCFS tie-break picked %d", got.ID)
	}
}

func TestSJFPicksShortest(t *testing.T) {
	long := synthReq(0, "long", 0, 10*time.Millisecond, 10, 10)
	short := synthReq(1, "short", 0, time.Millisecond, 2, 10)
	est := synthEstimator(long, short)
	ready := tasksOf(long, short)
	if got := NewSJF(est).PickNext(ready, 0); got != ready[1] {
		t.Errorf("SJF picked task %d", got.ID)
	}
	// After the long task executes most layers, its remaining estimate
	// shrinks below the short task's.
	ready[0].NextLayer = 9 // 10ms left under the LUT average
	ready[1].NextLayer = 0 // 2ms left; still shorter
	if got := NewSJF(est).PickNext(ready, 0); got != ready[1] {
		t.Errorf("SJF with progress picked task %d", got.ID)
	}
}

func TestPlanariaPicksLeastFeasibleSlack(t *testing.T) {
	// Task 0: arrival 0, SLO 100ms, 100ms remaining -> slack at t=60ms is
	// 100-60-100 = -60ms: hopeless.
	// Task 1: arrival 50ms, SLO 20ms, 10ms remaining -> slack 0: feasible.
	a := synthReq(0, "a", 0, 10*time.Millisecond, 10, 1)
	b := synthReq(1, "b", 50*time.Millisecond, 10*time.Millisecond, 1, 2)
	est := synthEstimator(a, b)
	ready := tasksOf(a, b)
	if got := NewPlanaria(est).PickNext(ready, 60*time.Millisecond); got != ready[1] {
		t.Errorf("Planaria picked task %d", got.ID)
	}
}

func TestPlanariaDrainsHopelessShortestFirst(t *testing.T) {
	// Both tasks past any chance of meeting their deadlines: the shorter
	// one drains first.
	a := synthReq(0, "a", 0, 10*time.Millisecond, 10, 1)
	b := synthReq(1, "b", 0, 10*time.Millisecond, 2, 1)
	est := synthEstimator(a, b)
	ready := tasksOf(a, b)
	if got := NewPlanaria(est).PickNext(ready, time.Second); got != ready[1] {
		t.Errorf("Planaria drained task %d first", got.ID)
	}
}

func TestPREMATokensPromoteStarvedTask(t *testing.T) {
	long := synthReq(0, "long", 0, 50*time.Millisecond, 10, 100)
	short := synthReq(1, "short", 0, time.Millisecond, 2, 100)
	est := synthEstimator(long, short)
	p := NewPREMA(est)
	ready := tasksOf(long, short)
	p.OnArrival(ready[0], 0)
	p.OnArrival(ready[1], 0)

	// Immediately, no tokens: all tasks are candidates, and SJF picks the
	// short one.
	if got := p.PickNext(ready, 0); got != ready[1] {
		t.Errorf("initial pick was task %d", got.ID)
	}

	// Candidate mechanism (white box, accrual suppressed by keeping
	// lastSeen at `now`): the starved long task sits above the threshold
	// while the short one is below and not the incumbent — the long task
	// becomes the sole candidate and overrides SJF order.
	now := 300 * time.Millisecond
	p.state(ready[0]).tokens = p.Threshold + 1
	p.state(ready[1]).tokens = 0
	p.state(ready[0]).lastSeen = now
	p.state(ready[1]).lastSeen = now
	p.lastPick = nil
	if got := p.PickNext(ready, now); got != ready[0] {
		t.Errorf("starved pick was task %d", got.ID)
	}
}

func TestPREMAIncumbentStaysCandidate(t *testing.T) {
	// The running (incumbent) task remains a candidate even with zero
	// tokens, so PREMA does not churn between equals every layer.
	long := synthReq(0, "long", 0, 50*time.Millisecond, 10, 100)
	short := synthReq(1, "short", 0, time.Millisecond, 2, 100)
	est := synthEstimator(long, short)
	p := NewPREMA(est)
	ready := tasksOf(long, short)
	p.OnArrival(ready[0], 0)
	p.OnArrival(ready[1], 0)

	now := 300 * time.Millisecond
	p.state(ready[0]).tokens = p.Threshold + 1
	p.state(ready[1]).tokens = 0
	p.state(ready[0]).lastSeen = now
	p.state(ready[1]).lastSeen = now
	p.lastPick = ready[1] // short is running
	// Both are candidates (long by tokens, short as incumbent): SJF keeps
	// the short incumbent.
	if got := p.PickNext(ready, now); got != ready[1] {
		t.Errorf("incumbent displaced by task %d", got.ID)
	}
}

func TestPREMACleansUpDoneTasks(t *testing.T) {
	r := synthReq(0, "m", 0, time.Millisecond, 1, 100)
	est := synthEstimator(r)
	p := NewPREMA(est)
	task := newTask(r)
	p.OnArrival(task, 0)
	task.NextLayer = 1
	task.Done = true
	p.OnLayerComplete(task, 0, 0.5, time.Millisecond)
	if task.Attachment != nil {
		t.Error("PREMA retained state for a finished task")
	}
}

func TestPriorityForLatencyBuckets(t *testing.T) {
	cases := []struct {
		iso  time.Duration
		want float64
	}{
		{10 * time.Millisecond, 8},
		{40 * time.Millisecond, 4},
		{100 * time.Millisecond, 2},
		{time.Second, 1},
	}
	for _, c := range cases {
		if got := priorityForLatency(c.iso); got != c.want {
			t.Errorf("priorityForLatency(%v) = %v, want %v", c.iso, got, c.want)
		}
	}
}

func TestSDRM3FavorsStarvedTask(t *testing.T) {
	a := synthReq(0, "a", 0, 10*time.Millisecond, 10, 100)
	b := synthReq(1, "b", 0, 10*time.Millisecond, 10, 100)
	est := synthEstimator(a, b)
	s := NewSDRM3(est)
	ready := tasksOf(a, b)
	// Task 0 has received lots of service; task 1 none: fairness must
	// select task 1.
	ready[0].ExecTime = 50 * time.Millisecond
	ready[0].NextLayer = 5
	if got := s.PickNext(ready, 60*time.Millisecond); got != ready[1] {
		t.Errorf("SDRM3 picked task %d", got.ID)
	}
}

func TestSDRM3UrgencySaturates(t *testing.T) {
	a := synthReq(0, "a", 0, 10*time.Millisecond, 2, 1)
	est := synthEstimator(a)
	s := NewSDRM3(est)
	task := newTask(a)
	// Past the deadline, the score must stay finite.
	sc := s.mapScore(task, time.Second)
	if sc != sc || sc > 1e12 { // NaN or absurd
		t.Errorf("mapScore past deadline = %v", sc)
	}
}

// TestBaselineCharacters runs all baselines on a contended synthetic
// workload and checks their qualitative characters: SJF beats FCFS on
// ANTT; Planaria (EDF) does not beat SJF on ANTT.
func TestBaselineCharacters(t *testing.T) {
	var reqs []*workload.Request
	id := 0
	// Alternating long and short jobs arriving in bursts.
	for burst := 0; burst < 20; burst++ {
		base := time.Duration(burst) * 30 * time.Millisecond
		reqs = append(reqs,
			synthReq(id, "long", base, 10*time.Millisecond, 5, 8),
			synthReq(id+1, "short", base+time.Millisecond, time.Millisecond, 2, 8),
		)
		id += 2
	}
	est := synthEstimator(reqs[0], reqs[1])
	run := func(s Scheduler) Result {
		res, err := Run(s, reqs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fcfs := run(NewFCFS())
	sjf := run(NewSJF(est))
	edf := run(NewPlanaria(est))
	if sjf.ANTT >= fcfs.ANTT {
		t.Errorf("SJF ANTT %.3f not below FCFS %.3f", sjf.ANTT, fcfs.ANTT)
	}
	if sjf.ANTT > edf.ANTT {
		t.Errorf("SJF ANTT %.3f above EDF %.3f", sjf.ANTT, edf.ANTT)
	}
}
