package sched

import (
	"reflect"
	"testing"
	"time"
)

// TestReadyQueueIndexing exercises the O(1) membership/removal contract.
func TestReadyQueueIndexing(t *testing.T) {
	var q ReadyQueue
	tasks := make([]*Task, 5)
	for i := range tasks {
		tasks[i] = &Task{ID: i, queueIndex: -1, heapIndex: -1}
		if q.Contains(tasks[i]) {
			t.Errorf("task %d contained before add", i)
		}
		q.add(tasks[i])
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d", q.Len())
	}
	for _, task := range tasks {
		if !q.Contains(task) {
			t.Errorf("task %d not contained after add", task.ID)
		}
	}
	// Remove from the middle: the last element is swapped in and stays
	// reachable.
	q.remove(tasks[2])
	if q.Contains(tasks[2]) {
		t.Error("removed task still contained")
	}
	if q.Len() != 4 {
		t.Errorf("Len after remove = %d", q.Len())
	}
	for _, task := range []*Task{tasks[0], tasks[1], tasks[3], tasks[4]} {
		if !q.Contains(task) {
			t.Errorf("task %d lost by swap-removal", task.ID)
		}
	}
	// Double-removal is a no-op.
	q.remove(tasks[2])
	if q.Len() != 4 {
		t.Errorf("Len after double remove = %d", q.Len())
	}
	// A foreign zero-value task is not contained.
	if q.Contains(&Task{}) {
		t.Error("foreign task reported contained")
	}
}

// TestTaskHeapOrdering drives the heap through pushes, key changes and
// removals, checking the minimum against a linear scan.
func TestTaskHeapOrdering(t *testing.T) {
	less := func(a, b *Task) bool {
		return a.Arrival < b.Arrival || (a.Arrival == b.Arrival && a.ID < b.ID)
	}
	var h TaskHeap
	h.Init(less)
	if h.Min() != nil {
		t.Fatal("empty heap has a minimum")
	}
	arrivals := []time.Duration{9, 3, 7, 3, 11, 1, 5}
	var tasks []*Task
	for i, a := range arrivals {
		task := &Task{ID: i, Arrival: a, queueIndex: -1, heapIndex: -1}
		tasks = append(tasks, task)
		h.Push(task)
	}
	scanMin := func(ts []*Task) *Task {
		best := ts[0]
		for _, x := range ts[1:] {
			if less(x, best) {
				best = x
			}
		}
		return best
	}
	if got, want := h.Min(), scanMin(tasks); got != want {
		t.Fatalf("Min = task %d, want %d", got.ID, want.ID)
	}
	// Key change: push task 0 to the front via Fix.
	tasks[0].Arrival = 0
	h.Fix(tasks[0])
	if h.Min() != tasks[0] {
		t.Fatalf("Min after Fix = task %d", h.Min().ID)
	}
	// Drain by repeated Remove(Min), checking against the scan each time.
	remaining := append([]*Task(nil), tasks...)
	for len(remaining) > 0 {
		want := scanMin(remaining)
		got := h.Min()
		if got != want {
			t.Fatalf("drain Min = task %d, want %d", got.ID, want.ID)
		}
		h.Remove(got)
		for i, x := range remaining {
			if x == got {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
	if h.Len() != 0 {
		t.Errorf("heap not empty after drain: %d", h.Len())
	}
}

// sameResults compares every metric of two runs, including per-request
// outcomes and the execution timeline, demanding bit-identical floats.
func sameResults(t *testing.T, name string, a, b Result) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: incremental and reference schedules diverge:\n%+v\nvs\n%+v", name, a, b)
	}
}

// TestIncrementalMatchesReference proves the IncrementalScheduler fast
// path produces bit-identical schedules to the reference PickNext for
// every baseline in this package, across many random request streams.
func TestIncrementalMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		reqs, est := randomStream(seed)
		specs := []struct {
			name string
			mk   func() Scheduler
		}{
			{"FCFS", func() Scheduler { return NewFCFS() }},
			{"SJF", func() Scheduler { return NewSJF(est) }},
			{"PREMA", func() Scheduler { return NewPREMA(est) }},
			{"Planaria", func() Scheduler { return NewPlanaria(est) }},
			{"SDRM3", func() Scheduler { return NewSDRM3(est) }},
		}
		record := Options{RecordTimeline: true, RecordTasks: true}
		reference := record
		reference.ReferencePick = true
		for _, spec := range specs {
			if _, ok := spec.mk().(IncrementalScheduler); !ok {
				t.Fatalf("%s does not implement IncrementalScheduler", spec.name)
			}
			fast, err := Run(spec.mk(), reqs, record)
			if err != nil {
				t.Fatalf("%s incremental (seed %d): %v", spec.name, seed, err)
			}
			ref, err := Run(spec.mk(), reqs, reference)
			if err != nil {
				t.Fatalf("%s reference (seed %d): %v", spec.name, seed, err)
			}
			sameResults(t, spec.name, fast, ref)
		}
	}
}
