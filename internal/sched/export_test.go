package sched

// Exported to this package's sched_test files, which run internal/core's
// schedulers on the fixtures here: core imports sched, so those tests
// cannot live in package sched.
var (
	SynthReq         = synthReq
	SynthLUT         = synthLUT
	TieGridStream    = tieGridStream
	EngineInvariants = engineInvariants
)

// FinishInto is e.Finish with the Result's PerModel cut from slot, the
// slot path Runner.RunInto takes.
func FinishInto(e *Engine, slot []ModelMetrics) Result { return e.finishInto(slot) }

// TaskList returns the free tasks on e's task list, in the order Gets
// take them, the list's count of them, and how many tasks it holds in
// all, free or out.
func TaskList(e *Engine) (free []*Task, n, held int) {
	for t := e.tasks.free.head; t != nil; t = t.next {
		free = append(free, t)
	}
	return free, e.tasks.free.n, e.tasks.held
}

// EngineTasks lists the tasks e holds: its ready queue, the running task
// included, then its undelivered pending set.
func EngineTasks(e *Engine) []*Task {
	ts := append([]*Task(nil), e.ready.Tasks()...)
	for i := range e.pending.entries {
		ts = append(ts, e.pending.entries[i].t)
	}
	return ts
}
