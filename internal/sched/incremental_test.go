package sched

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"sparsedysta/internal/rng"
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

// preOrder is the brute-force reference of TaskHeap.Walk: a recursive
// pre-order over the heap's array layout, children of i at 2i+1 and
// 2i+2, that skips the subtree below every task prune rejects.
func preOrder(h *TaskHeap, i int, prune func(*Task) bool, out []int) []int {
	if i >= len(h.tasks) {
		return out
	}
	out = append(out, h.tasks[i].ID)
	if prune(h.tasks[i]) {
		return out
	}
	return preOrder(h, 2*i+2, prune, preOrder(h, 2*i+1, prune, out))
}

// TestTaskHeapWalk: Walk visits exactly the tasks of the brute-force
// pre-order, in its order, on random heaps (pushes, key changes and
// removals) under random prune predicates, the empty heap and the
// never-pruning walk included.
func TestTaskHeapWalk(t *testing.T) {
	less := func(a, b *Task) bool {
		return a.Arrival < b.Arrival || (a.Arrival == b.Arrival && a.ID < b.ID)
	}
	r := rng.New(11)
	for trial := 0; trial < 300; trial++ {
		var h TaskHeap
		h.Init(less)
		var tasks []*Task
		for i, n := 0, r.Intn(40); i < n; i++ {
			task := &Task{ID: i, Arrival: time.Duration(r.Intn(20)), queueIndex: -1, heapIndex: -1}
			tasks = append(tasks, task)
			h.Push(task)
		}
		for _, task := range tasks {
			switch r.Intn(4) {
			case 0:
				h.Remove(task)
			case 1:
				task.Arrival = time.Duration(r.Intn(20))
				h.Fix(task)
			}
		}
		pruned := map[int]bool{}
		for _, task := range tasks {
			pruned[task.ID] = r.Intn(3) == 0
		}
		for name, prune := range map[string]func(*Task) bool{
			"none":  func(*Task) bool { return false },
			"keys":  func(x *Task) bool { return x.Arrival >= 10 },
			"rand":  func(x *Task) bool { return pruned[x.ID] },
			"all":   func(*Task) bool { return true },
			"depth": func(x *Task) bool { return x.heapIndex >= 3 },
		} {
			var got []int
			h.Walk(func(x *Task) bool {
				got = append(got, x.ID)
				return !prune(x)
			})
			if want := preOrder(&h, 0, prune, nil); !slices.Equal(got, want) {
				t.Fatalf("trial %d, prune %s: walk visits %v, want %v", trial, name, got, want)
			}
		}
	}
}

// walkCounter's visit is passed to Walk as a method value, the visitor
// form that allocates a closure if Walk lets it escape.
type walkCounter struct {
	visited int
	limit   time.Duration
}

func (c *walkCounter) visit(t *Task) bool {
	c.visited++
	return t.Arrival <= c.limit
}

// TestTaskHeapWalkAllocatesNothing: a walk with a method-value visitor
// makes no allocation, since the visitor does not escape.
func TestTaskHeapWalkAllocatesNothing(t *testing.T) {
	var h TaskHeap
	h.Init(func(a, b *Task) bool { return a.Arrival < b.Arrival || (a.Arrival == b.Arrival && a.ID < b.ID) })
	for i := 0; i < 100; i++ {
		h.Push(&Task{ID: i, Arrival: time.Duration(i % 17), queueIndex: -1, heapIndex: -1})
	}
	c := &walkCounter{limit: 8}
	if allocs := testing.AllocsPerRun(100, func() { h.Walk(c.visit) }); allocs != 0 {
		t.Errorf("Walk made %v allocations per run, want 0", allocs)
	}
	if c.visited == 0 {
		t.Error("the walk visited nothing")
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
