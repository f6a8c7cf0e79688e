package sched

import "time"

// ReadyQueue is the engine's indexed ready set. Tasks carry their own
// position (Task.queueIndex), so membership checks and removals are O(1)
// instead of the linear scans the engine used to perform per scheduling
// decision. Removal swaps the last element into the vacated slot, so the
// queue does NOT preserve insertion order; every scheduler's selection rule
// is a strict lexicographic minimum (score, then task ID), which is
// order-independent, and the invariants test cross-checks this.
type ReadyQueue struct {
	tasks []*Task
}

// Len returns the number of ready tasks.
func (q *ReadyQueue) Len() int { return len(q.tasks) }

// Tasks returns the live backing slice for iteration. Callers must not
// mutate it; the engine passes it to the reference Scheduler.PickNext.
func (q *ReadyQueue) Tasks() []*Task { return q.tasks }

// Contains reports membership in O(1) via the task-carried index.
func (q *ReadyQueue) Contains(t *Task) bool {
	i := t.queueIndex
	return i >= 0 && i < len(q.tasks) && q.tasks[i] == t
}

// add appends a task, recording its index.
func (q *ReadyQueue) add(t *Task) {
	t.queueIndex = len(q.tasks)
	q.tasks = append(q.tasks, t)
}

// remove deletes a task in O(1) by swapping the last element into its
// slot. Unlike the old append(ts[:i], ts[i+1:]...) helper this never
// shifts the tail (no aliasing of a caller-visible backing array) and
// clears the vacated slot so completed tasks are not retained.
func (q *ReadyQueue) remove(t *Task) {
	i := t.queueIndex
	if i < 0 || i >= len(q.tasks) || q.tasks[i] != t {
		return
	}
	last := len(q.tasks) - 1
	q.tasks[i] = q.tasks[last]
	q.tasks[i].queueIndex = i
	q.tasks[last] = nil
	q.tasks = q.tasks[:last]
	t.queueIndex = -1
}

// IncrementalScheduler is the optional fast-path extension of Scheduler
// and the engine's one production pick. Implementations keep their scoring
// state incremental — heaps keyed by a time-invariant priority or by a
// provable score bound, and per-task cached score components refreshed
// only at the events that change them (arrival, layer completion) — so a
// scheduling decision avoids the from-scratch re-scoring of the reference
// PickNext. The reference PickNext remains mandatory and must pick the
// identical task: bound-keyed heaps are candidate filters whose survivors
// are re-scored with the reference arithmetic, never approximations (the
// equivalence tests in this package, internal/core and internal/exp
// demand bit-identical schedules).
type IncrementalScheduler interface {
	Scheduler
	// PickNextIncremental selects the next task from the non-empty ready
	// queue, equivalently to PickNext(q.Tasks(), now).
	PickNextIncremental(q *ReadyQueue, now time.Duration) *Task
}

// ScalableScheduler was the opt-in heap pick behind Options.ScalablePick.
//
// Deprecated: the heap picks are now every scheduler's
// PickNextIncremental, and the engine never calls these methods. The type
// remains only for callers that still name it.
type ScalableScheduler interface {
	Scheduler
	EnableScalable()
	PickNextScalable(q *ReadyQueue, now time.Duration) *Task
}

// TaskHeap is a binary min-heap of tasks under a scheduler-supplied strict
// ordering. The heap position is carried on the task (Task.heapIndex), so
// Remove and Fix are O(log n) with no auxiliary map; a task sits in at
// most one TaskHeap at a time, though one scheduler may own several heaps
// over disjoint task sets (Remove and Fix on a heap that does not hold the
// task are no-ops). Only one scheduler owns a task's heap slot at a time —
// one scheduler instance runs per engine invocation.
//
// Schedulers embed TaskHeap by value and set the order with Init, so a
// scheduler instance allocates no heap struct, no ordering closure (less
// should be a plain function over keys cached on the task or its
// attachment), and no backing array until the heap outgrows its inline
// storage. A TaskHeap must not be copied after Init.
type TaskHeap struct {
	less   func(a, b *Task) bool
	tasks  []*Task
	inline [heapInline]*Task
}

// heapInline is the capacity a TaskHeap holds before it allocates: enough
// for the ready queues of an engine running below saturation, so a
// scheduler serving one never grows a backing array.
const heapInline = 8

// Init empties the heap and sets its ordering. less must be a strict weak
// ordering that never reports ties (break them by Task.ID) so the minimum
// is unique and matches the reference linear scan.
func (h *TaskHeap) Init(less func(a, b *Task) bool) {
	h.less = less
	h.tasks = h.inline[:0]
}

// Len returns the number of tasks in the heap.
func (h *TaskHeap) Len() int { return len(h.tasks) }

// Min returns the minimum task without removing it, or nil when empty.
func (h *TaskHeap) Min() *Task {
	if len(h.tasks) == 0 {
		return nil
	}
	return h.tasks[0]
}

// At returns the task at heap position i, 0 <= i < Len(): position 0
// holds the minimum, and the others follow in no order a caller may rely
// on. It serves flat scans over every task; a bounded search uses Walk.
func (h *TaskHeap) At(i int) *Task { return h.tasks[i] }

// Walk visits the heap's tasks in pre-order from the minimum, skipping
// the subtree below any task whose visit returns false. It is the one
// traversal of the bound-keyed picks: the heap property guarantees every
// task below a node orders at or after it, so a visit that finds the
// node's key already past the best score found prunes its whole subtree.
// visit must not change the heap. Walk is small enough to inline, so a
// func literal visitor is called directly, without an indirect call per
// task.
func (h *TaskHeap) Walk(visit func(*Task) bool) {
	for i, n := 0, len(h.tasks); i < n; i++ {
		if visit(h.tasks[i]) && 2*i+1 < n {
			i *= 2 // the loop's i++ steps down to the left child
			continue
		}
		// Climb past right children and past a left child that ends the
		// heap; the loop's i++ then steps to the next right sibling.
		for i&1 == 0 || i+1 == n {
			if i == 0 {
				return
			}
			i = (i - 1) >> 1
		}
	}
}

// Push inserts a task.
func (h *TaskHeap) Push(t *Task) {
	t.heapIndex = len(h.tasks)
	h.tasks = append(h.tasks, t)
	h.up(t.heapIndex)
}

// Remove deletes the task if present and reports whether it was.
func (h *TaskHeap) Remove(t *Task) bool {
	i := t.heapIndex
	if i < 0 || i >= len(h.tasks) || h.tasks[i] != t {
		return false
	}
	last := len(h.tasks) - 1
	h.swap(i, last)
	h.tasks[last] = nil
	h.tasks = h.tasks[:last]
	t.heapIndex = -1
	if i < last {
		h.fix(i)
	}
	return true
}

// Fix restores the heap order after the task's key changed and reports
// whether the heap holds the task.
func (h *TaskHeap) Fix(t *Task) bool {
	i := t.heapIndex
	if i < 0 || i >= len(h.tasks) || h.tasks[i] != t {
		return false
	}
	h.fix(i)
	return true
}

func (h *TaskHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *TaskHeap) swap(i, j int) {
	h.tasks[i], h.tasks[j] = h.tasks[j], h.tasks[i]
	h.tasks[i].heapIndex = i
	h.tasks[j].heapIndex = j
}

func (h *TaskHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.tasks[i], h.tasks[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts index i toward the leaves; it reports whether i moved.
func (h *TaskHeap) down(i int) bool {
	start := i
	n := len(h.tasks)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(h.tasks[r], h.tasks[child]) {
			child = r
		}
		if !h.less(h.tasks[child], h.tasks[i]) {
			break
		}
		h.swap(i, child)
		i = child
	}
	return i > start
}
