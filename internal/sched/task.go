package sched

import (
	"time"

	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// Task is the engine-side state of one request. Schedulers read its public
// identity and progress fields; the ground-truth trace is reserved to the
// engine and to core.NewOracle's Oracle (TrueRemaining documents the
// exception).
type Task struct {
	ID  int
	Key trace.Key
	// Arrival is the absolute arrival time.
	Arrival time.Duration
	// SLO is the relative latency objective; Deadline = Arrival + SLO.
	SLO time.Duration
	// NextLayer is the index of the next layer to execute.
	NextLayer int
	// ExecTime is the accelerator time the task has received so far.
	ExecTime time.Duration
	// LastRun is the time the task last finished executing a layer (its
	// arrival time before it ever ran). The interval now-LastRun is the
	// T_wait of the paper's preemption penalty (Alg. 2 line 10): a
	// recently executed request has a near-zero penalty, which keeps it
	// running.
	LastRun time.Duration
	// Completion is the finish time (valid once Done).
	Completion time.Duration
	// Done reports whether every layer has executed.
	Done bool
	// Migrated reports that the cluster rebalancer has moved the task to
	// another engine. A request migrates at most once, ever: the flag
	// survives Restart, so a migrated request that fails over stays
	// ineligible for a second move.
	Migrated bool
	// Attempts counts how many times the request was restarted from
	// scratch after an engine failure destroyed its partial execution
	// (zero for a request that never lost work). The cluster's retry
	// policy bounds it: a request whose engine dies with Attempts already
	// at the retry cap becomes lost work instead of restarting again.
	Attempts int
	// Attachment is a scheduler-private per-task state slot: schedulers
	// set it in OnArrival and read it back at every scheduling point,
	// replacing the per-pick map lookups the baselines used to do. Exactly
	// one scheduler instance runs per engine invocation, so the slot is
	// never shared. The engine ignores it.
	Attachment any

	// tr is the ground-truth sample trace the request points at in the
	// evaluation store: a pointer, so the task carries 8 bytes instead
	// of a copy of the trace's two slice headers.
	tr *trace.SampleTrace
	// trueTotal caches the trace's end-to-end latency; trueRemaining is
	// maintained by the engine as layers execute so TrueRemaining is O(1)
	// instead of re-summing the trace suffix.
	trueTotal, trueRemaining time.Duration
	// queueIndex is the task's position in the engine's ReadyQueue
	// (-1 when not queued); heapIndex is its position in the active
	// scheduler's TaskHeap (-1 when absent).
	queueIndex, heapIndex int
	// estCurve and estAccounted belong to the owning engine's incremental
	// backlog accounting (Options.BacklogEstimator): estAccounted is the
	// amount this task currently contributes to the engine's running
	// backlog sum, and estCurve, when non-nil, is the cached per-layer
	// remaining-estimate curve (indexed by NextLayer) that makes the
	// post-layer re-estimate a slice index instead of an estimator call.
	estCurve     []time.Duration
	estAccounted time.Duration
}

// taskDepot is the process-wide depot every run's task list grows from
// and hands its free tasks back to at Finish (see FreeList).
var taskDepot depot[Task]

// wrap makes t the task of a workload request. Every field is written
// in place, without building a Task and copying it in, so a recycled
// task is indistinguishable from a fresh one.
func (t *Task) wrap(r *workload.Request) {
	total := r.Trace.Total()
	t.ID, t.Key, t.Arrival, t.SLO = r.ID, r.Key, r.Arrival, r.SLO
	t.NextLayer, t.ExecTime, t.LastRun, t.Completion = 0, 0, r.Arrival, 0
	t.Done, t.Migrated, t.Attempts, t.Attachment = false, false, 0, nil
	t.tr, t.trueTotal, t.trueRemaining = r.Trace, total, total
	t.queueIndex, t.heapIndex = -1, -1
	t.estCurve, t.estAccounted = nil, 0
}

// Request rebuilds the request the task wraps: ID, Key, Trace, Arrival
// and SLO, all of which Restart keeps. Failover re-dispatches a displaced
// task through it. As on workload.Request, the Trace is ground truth
// reserved to the engine and to core.NewOracle's Oracle.
func (t *Task) Request() workload.Request {
	return workload.Request{ID: t.ID, Key: t.Key, Trace: t.tr, Arrival: t.Arrival, SLO: t.SLO}
}

// NumLayers returns the task's layer count.
func (t *Task) NumLayers() int { return t.tr.NumLayers() }

// Deadline returns the absolute completion deadline.
func (t *Task) Deadline() time.Duration { return t.Arrival + t.SLO }

// WaitTime returns the cumulative time the task has spent in the system
// not executing.
func (t *Task) WaitTime(now time.Duration) time.Duration {
	w := now - t.Arrival - t.ExecTime
	if w < 0 {
		return 0
	}
	return w
}

// SinceLastRun returns the time since the task last executed a layer (or
// since arrival, if it never ran): the T_wait of the paper's preemption
// penalty.
func (t *Task) SinceLastRun(now time.Duration) time.Duration {
	w := now - t.LastRun
	if w < 0 {
		return 0
	}
	return w
}

// Restart rewinds a task that lost its partial execution to an engine
// failure back to the never-started state, for re-injection (Adopt) on a
// surviving engine: progress, accrued accelerator time and scheduler
// attachments are discarded (restart-from-zero — the activations died
// with the accelerator), the attempt counter increments, and identity,
// arrival, SLO and the Migrated flag are preserved, so turnaround metrics
// keep measuring from the original arrival and a migrated request never
// moves twice. The retry pays for the failure in its own latency, never
// by rewriting history. Restarting a completed task is a caller bug; the
// cluster only restarts tasks ripped from a crashed engine, which are
// never Done.
func (t *Task) Restart() {
	t.NextLayer = 0
	t.ExecTime = 0
	t.LastRun = t.Arrival
	t.Completion = 0
	t.Done = false
	t.Attempts++
	t.Attachment = nil
	t.trueRemaining = t.trueTotal
	t.queueIndex, t.heapIndex = -1, -1
	// Backlog-accounting state belongs to the engine that owned the task;
	// the adopting engine re-resolves both on arrival.
	t.estCurve, t.estAccounted = nil, 0
}

// Violated reports whether the task finished past its deadline (or, if
// still running at `now`, has already passed it).
func (t *Task) Violated(now time.Duration) bool {
	if t.Done {
		return t.Completion > t.Deadline()
	}
	return now > t.Deadline()
}

// TrueIsolated returns the ground-truth isolated latency (T_isol). The
// engine uses it for metrics; among schedulers only the Oracle
// (core.NewOracle) may call it.
func (t *Task) TrueIsolated() time.Duration { return t.trueTotal }

// TrueRemaining returns the ground-truth remaining isolated latency from
// the task's next layer, maintained incrementally by the engine (O(1)).
// Reserved to the Oracle (core.NewOracle), which the paper defines as
// Dysta given perfect latency information (§6.4).
func (t *Task) TrueRemaining() time.Duration { return t.trueRemaining }

// nextLayerLatency is the engine's accessor for ground-truth execution.
func (t *Task) nextLayerLatency() time.Duration { return t.tr.LayerLatency[t.NextLayer] }

// monitoredSparsity returns the hardware monitor's reading for a completed
// layer: the dynamic sparsity the zero-counting circuit observes (§5.2.1).
func (t *Task) monitoredSparsity(layer int) float64 { return t.tr.LayerSparsity[layer] }

// Scheduler decides which ready task runs next. Implementations are
// invoked by the engine at every scheduling point: task arrival delivery
// and layer completion.
type Scheduler interface {
	// Name identifies the scheduler in results.
	Name() string
	// OnArrival is called once when a task enters the ready queue.
	OnArrival(t *Task, now time.Duration)
	// OnLayerComplete is called after each layer of the running task
	// finishes, with the monitored dynamic sparsity of that layer — the
	// runtime signal Dysta's hardware monitor provides (§5.2.1).
	OnLayerComplete(t *Task, layer int, monitored float64, now time.Duration)
	// PickNext selects the next task to run from the non-empty ready
	// slice. Returning a task not in ready is a programming error the
	// engine reports.
	PickNext(ready []*Task, now time.Duration) *Task
}

// TaskExtractor is the optional Scheduler extension request migration
// and engine crashes require: Engine.Extract withdraws a
// delivered-but-never-executed task from the ready queue, Engine.Crash
// withdraws every delivered task, started or not, and the scheduler must
// release every trace of each — heap slots, attachments, candidate
// bookkeeping — as if the task had never arrived, because the task will
// re-enter a scheduler through its OnArrival, and after a crash the
// emptied scheduler must schedule exactly like a new one. Schedulers that
// keep no per-task state outside Task.Attachment only need to clear the
// attachment. A scheduler without this method cannot serve on a
// migrating cluster or one whose churn plan fails engines: Extract and
// Crash refuse (with an error) to withdraw a delivered task from it
// rather than corrupt its internal ordering structures.
type TaskExtractor interface {
	// OnExtract is called once, before the task leaves the ready queue,
	// with the engine clock of the extraction (for a crash, the failure
	// instant).
	OnExtract(t *Task, now time.Duration)
}
