package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"sparsedysta/internal/rng"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// This file is the fault-injection subsystem: a deterministic churn plan
// (engines failing, recovering, draining and rejoining at fixed instants
// of virtual time) and the faultInjector that executes it inside
// cluster.Run. The design splits cleanly along the control/data-plane
// line the rest of the cluster already draws:
//
//   - The PLAN is pure data, either hand-built (tests) or
//     generated from (seed, MTBF, MTTR) by GenChurn — never from a wall
//     clock, so a churning run stays a bit-reproducible function of
//     (schedulers, stream, config, plan).
//   - The INJECTOR owns engine lifecycle state and the failover path: on
//     a failure it folds the dying incarnation into a few counters, rips
//     its queue out (sched.Engine.Crash, which re-arms the slot's engine
//     in place as a fresh incarnation around its emptied scheduler), and
//     pushes the displaced work back through the run's own dispatch
//     pipeline — stale signals, redirect bounces and all — so recovery
//     traffic experiences exactly the routing imperfections normal
//     traffic does.
//   - The SIGNAL BOARD keeps publishing whatever it knew at its last
//     refresh: a dead engine looks alive (and attractive — its queue
//     just vanished) until the next refresh instant. Dispatchers route
//     to the corpse; the cluster bounces the request to the next live
//     engine and counts the redirect. That window is the failure
//     analogue of the staleness the board was built to model.
//
// A nil plan (or one with no events) takes exactly the pre-churn code
// path — the bit-identity anchor the churn equivalence tests enforce.

// ChurnKind is the type of one churn event.
type ChurnKind int

const (
	// Fail crashes the engine: queued never-started work fails over to
	// the surviving engines, started work restarts from zero elsewhere
	// (bounded by the retry cap) or becomes lost work, and the slot stops
	// serving until a Recover.
	Fail ChurnKind = iota
	// Recover returns a failed slot to service. Its engine was re-armed
	// at the crash: empty queues and books around its emptied scheduler,
	// a fresh incarnation (the crashed one's state died with it).
	Recover
	// Drain takes a healthy engine out of rotation without killing it:
	// no new work is routed to it, but its queue runs to completion —
	// the graceful shutdown every serving stack performs before
	// maintenance.
	Drain
	// Join returns a draining (or failed) slot to service, keeping
	// whatever queue it still holds.
	Join
)

// String names the kind for plans, errors and experiment output.
func (k ChurnKind) String() string {
	switch k {
	case Fail:
		return "fail"
	case Recover:
		return "recover"
	case Drain:
		return "drain"
	case Join:
		return "join"
	}
	return fmt.Sprintf("ChurnKind(%d)", int(k))
}

// ChurnEvent schedules one lifecycle transition at a virtual-clock
// instant.
type ChurnEvent struct {
	// At is the virtual time the event fires — effective at the first
	// simulation point at or after it. Events at the same instant as an
	// engine scheduling point or a request arrival fire first: the
	// control plane acts before the data plane, so a layer *starting* at
	// the exact crash instant dies with the accelerator. Work committed
	// by scheduling decisions strictly before At stands even when its
	// execution span crosses At (the engine commits a layer atomically
	// at its start instant) — the same event-granularity discipline
	// rebalance rounds follow, pinned by the churn tests.
	At time.Duration
	// Engine is the index of the affected slot.
	Engine int
	// Kind is the transition.
	Kind ChurnKind
}

// ChurnPlan is a deterministic schedule of engine lifecycle events. The
// zero plan (no events) disables fault injection entirely.
type ChurnPlan struct {
	Events []ChurnEvent
}

// maxChurnEvents bounds a generated plan at 1<<22 events (96 MiB): a
// horizon thousands of times the MTBF or MTTR asks for more events than
// any run could use, so GenChurn refuses it instead of exhausting memory.
// The serving-control benchmark's plan holds ~23k.
const maxChurnEvents = 1 << 22

// GenChurn builds a fail/recover plan from an exponential availability
// model: each engine alternates up-periods of mean MTBF and down-periods
// of mean MTTR, with every deviate drawn from a per-engine substream of
// the seed (rng.Split), so the plan for engine i is independent of the
// engine count — adding an engine never reshuffles the others' failures.
// Events beyond the horizon are cut; an engine whose first failure lands
// past the horizon simply never fails. The plan is sorted by (At,
// Engine), stably, so an engine's same-instant events keep their drawn
// order.
//
// The events are counted first, by walking a copy of each engine's
// substream, and then drawn again into a slice of exactly that length.
// A plan of more than maxChurnEvents events is an error, returned before
// anything is allocated for it.
func GenChurn(engines int, horizon, mtbf, mttr time.Duration, seed uint64) (ChurnPlan, error) {
	if engines < 1 {
		return ChurnPlan{}, fmt.Errorf("cluster: GenChurn over %d engines", engines)
	}
	if horizon <= 0 || mtbf <= 0 || mttr <= 0 {
		return ChurnPlan{}, fmt.Errorf("cluster: GenChurn needs positive horizon/MTBF/MTTR (got %v, %v, %v)",
			horizon, mtbf, mttr)
	}
	root := rng.New(seed)
	srcs := make([]rng.Source, engines)
	total := 0
	for i := range srcs {
		srcs[i] = *root.Split()
		r := srcs[i]
		walkChurn(&r, horizon, mtbf, mttr, func(time.Duration, ChurnKind) bool {
			total++
			return total <= maxChurnEvents
		})
		if total > maxChurnEvents {
			return ChurnPlan{}, fmt.Errorf("cluster: GenChurn over %d engines with horizon %v, MTBF %v and MTTR %v makes more than %d events",
				engines, horizon, mtbf, mttr, maxChurnEvents)
		}
	}
	if total == 0 {
		return ChurnPlan{}, nil
	}
	events := make([]ChurnEvent, 0, total)
	for i := range srcs {
		walkChurn(&srcs[i], horizon, mtbf, mttr, func(at time.Duration, kind ChurnKind) bool {
			events = append(events, ChurnEvent{At: at, Engine: i, Kind: kind})
			return true
		})
	}
	slices.SortStableFunc(events, byTimeEngine)
	return ChurnPlan{Events: events}, nil
}

// walkChurn draws one engine's alternating up- and down-periods from r,
// starting up at time 0, and passes each transition before the horizon
// to emit, stopping early once emit returns false.
func walkChurn(r *rng.Source, horizon, mtbf, mttr time.Duration, emit func(at time.Duration, kind ChurnKind) bool) {
	t := time.Duration(0)
	up := true
	for {
		mean, kind := mtbf, Fail
		if !up {
			mean, kind = mttr, Recover
		}
		t += time.Duration(r.Exp(1.0 / float64(mean)))
		if t >= horizon || !emit(t, kind) {
			return
		}
		up = !up
	}
}

// byTimeEngine orders events by (time, engine). Sorted stably by it,
// same-instant events on different engines fire in engine order and
// same-engine sequences keep their authored order.
func byTimeEngine(a, b ChurnEvent) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	return cmp.Compare(a.Engine, b.Engine)
}

// validate checks the plan against the cluster size. Transition legality
// (a Recover of a healthy engine, a double Fail) is checked at fire time
// by the injector, where the actual state is known.
func (p *ChurnPlan) validate(engines int) error {
	for _, ev := range p.Events {
		if ev.Engine < 0 || ev.Engine >= engines {
			return fmt.Errorf("cluster: churn event %s at %v targets engine %d of %d",
				ev.Kind, ev.At, ev.Engine, engines)
		}
		if ev.At < 0 {
			return fmt.Errorf("cluster: churn event %s on engine %d at negative time %v",
				ev.Kind, ev.Engine, ev.At)
		}
		if ev.Kind < Fail || ev.Kind > Join {
			return fmt.Errorf("cluster: unknown churn kind %d on engine %d", int(ev.Kind), ev.Engine)
		}
	}
	return nil
}

// engineState is one slot's lifecycle state. healthy serves traffic;
// stateFailed is a dead slot awaiting Recover; stateDraining completes
// its queue but accepts no new work.
type engineState int

const (
	stateHealthy engineState = iota
	stateFailed
	stateDraining
)

func (s engineState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateFailed:
		return "failed"
	case stateDraining:
		return "draining"
	}
	return fmt.Sprintf("engineState(%d)", int(s))
}

// faultInjector executes a ChurnPlan inside one cluster run. All state is
// per-run; Run creates it only when the plan has events, so a churn-free
// run never touches this code.
type faultInjector struct {
	plan   []ChurnEvent // sorted by (At, Engine); may be the caller's, so read only
	cursor int
	state  []engineState

	// engines is Run's own slice, shared with the SignalBoard and
	// Rebalancer; a crash re-arms the slot's engine in place, so all
	// three see the fresh incarnation at once.
	engines  []*sched.Engine
	board    *SignalBoard
	dispatch Dispatcher
	// req is the one request every failover re-dispatch reuses: the
	// Dispatcher's Pick takes a request, and place rebuilds it from the
	// displaced task (Task.Request).
	req workload.Request
	// cost is the failover visibility delay per displaced request,
	// shared with migration (Config.MigrationCost): moving a queued
	// request off a corpse is the same network transfer as stealing it.
	cost     time.Duration
	retryMax int

	// parked holds displaced work while zero engines are placeable; the
	// next Recover/Join re-dispatches it (unpark). Whatever is still
	// parked when the run ends is lost work. spare is the buffer parked
	// trades places with at each unpark, so two buffers serve every park.
	parked, spare []*sched.Task
	// crashes counts crashed incarnations; crashedSched names the first
	// one's scheduler and crashedPreempts sums their preemptions. The
	// cluster aggregator has already folded their completions through
	// the observers, so these are all the final result needs of them.
	crashes         int
	crashedSched    string
	crashedPreempts int
	// priorBusy accumulates crashed incarnations' busy time per slot for
	// the utilization metrics.
	priorBusy []time.Duration
	// serviceStart and serviceTime track each slot's in-service spans:
	// serviceStart[i] is when the slot last entered stateHealthy,
	// serviceTime[i] the total healthy time of closed spans. Together
	// with closeService they yield the EngineSeconds cost metric and the
	// live-set utilization denominators. Draining tails (a slot finishing
	// its queue after leaving rotation) are deliberately not billed: the
	// autoscaler drains idle-ish engines, so the tail is small, and
	// billing stops when the operator stops routing to the slot.
	serviceStart []time.Duration
	serviceTime  []time.Duration
	// lastInstant is the latest transition instant seen, a floor for the
	// end-of-run span close (an action can postdate the last engine
	// event).
	lastInstant time.Duration

	// Counters surfaced on the cluster Result.
	failovers int // queued requests moved off a dead engine
	retries   int // started requests restarted from zero elsewhere
	lost      int // requests abandoned: retry cap hit, or parked at run end
	redirects int // dispatch picks bounced off a non-placeable engine
	churns    int // fired events
}

// newFaultInjector validates and arms the plan. The board is bound to
// the injector's liveness so refreshes stamp availability into the
// published signals (stale until the next refresh, by design).
func newFaultInjector(plan *ChurnPlan, engines []*sched.Engine, board *SignalBoard,
	dispatch Dispatcher, cost time.Duration, retryMax int) (*faultInjector, error) {
	if err := plan.validate(len(engines)); err != nil {
		return nil, err
	}
	if retryMax < 0 {
		return nil, fmt.Errorf("cluster: negative retry cap %d", retryMax)
	}
	// The injector only reads its plan, so a sorted one (GenChurn's) is
	// used in place; an unsorted one is sorted in a copy, so the
	// caller's is never reordered.
	events := plan.Events
	if !slices.IsSortedFunc(events, byTimeEngine) {
		events = slices.Clone(events)
		slices.SortStableFunc(events, byTimeEngine)
	}
	fi := &faultInjector{
		plan:         events,
		state:        make([]engineState, len(engines)),
		engines:      engines,
		board:        board,
		dispatch:     dispatch,
		cost:         cost,
		retryMax:     retryMax,
		priorBusy:    make([]time.Duration, len(engines)),
		serviceStart: make([]time.Duration, len(engines)),
		serviceTime:  make([]time.Duration, len(engines)),
	}
	board.BindLiveness(fi.up)
	return fi, nil
}

// up reports whether the slot is in service — what the SignalBoard
// publishes (at refresh instants) and what placement requires. Draining
// engines are down for placement purposes: they finish what they hold
// but take nothing new.
func (fi *faultInjector) up(i int) bool { return fi.state[i] == stateHealthy }

// setState performs a lifecycle transition at instant `at`, closing or
// opening the slot's in-service span as it crosses the healthy boundary.
// Every transition — plan events, crashes, autoscaler actions — goes
// through here, so the service-time books cannot drift from the states.
func (fi *faultInjector) setState(i int, s engineState, at time.Duration) {
	if at > fi.lastInstant {
		fi.lastInstant = at
	}
	was, is := fi.state[i] == stateHealthy, s == stateHealthy
	if was && !is {
		if d := at - fi.serviceStart[i]; d > 0 {
			fi.serviceTime[i] += d
		}
	}
	if !was && is {
		fi.serviceStart[i] = at
	}
	fi.state[i] = s
}

// closeService closes every still-open in-service span at `end` (or at
// the last transition instant, whichever is later) and returns the total
// in-service time across slots — the provisioned capacity the run billed.
func (fi *faultInjector) closeService(end time.Duration) time.Duration {
	if end < fi.lastInstant {
		end = fi.lastInstant
	}
	var total time.Duration
	for i := range fi.serviceTime {
		if fi.state[i] == stateHealthy {
			if d := end - fi.serviceStart[i]; d > 0 {
				fi.serviceTime[i] += d
			}
			fi.serviceStart[i] = end
		}
		total += fi.serviceTime[i]
	}
	return total
}

// peek returns the next unfired event's instant.
func (fi *faultInjector) peek() (time.Duration, bool) {
	if fi.cursor >= len(fi.plan) {
		return 0, false
	}
	return fi.plan[fi.cursor].At, true
}

// fireUpTo fires every event with At <= now, in plan order. Run calls it
// at arrival instants (before dispatching the arrival) and the event
// loop calls it interleaved with engine steps.
func (fi *faultInjector) fireUpTo(now time.Duration) error {
	for {
		at, ok := fi.peek()
		if !ok || at > now {
			return nil
		}
		if err := fi.fire(); err != nil {
			return err
		}
	}
}

// fire executes the event at the cursor. Illegal transitions (a Recover
// of a healthy engine, a Drain of a dead one) fail the run: a churn plan
// is a deterministic input and an inconsistent one is a bug, not a
// runtime condition — exactly the rebalancer's malformed-plan stance.
func (fi *faultInjector) fire() error {
	ev := fi.plan[fi.cursor]
	fi.cursor++
	fi.churns++
	switch ev.Kind {
	case Fail:
		if fi.state[ev.Engine] == stateFailed {
			return fmt.Errorf("cluster: churn plan fails engine %d at %v twice", ev.Engine, ev.At)
		}
		return fi.crash(ev.Engine, ev.At)
	case Recover:
		if fi.state[ev.Engine] != stateFailed {
			return fmt.Errorf("cluster: churn plan recovers %s engine %d at %v",
				fi.state[ev.Engine], ev.Engine, ev.At)
		}
		fi.setState(ev.Engine, stateHealthy, ev.At)
		return fi.unpark(ev.At)
	case Drain:
		if fi.state[ev.Engine] != stateHealthy {
			return fmt.Errorf("cluster: churn plan drains %s engine %d at %v",
				fi.state[ev.Engine], ev.Engine, ev.At)
		}
		fi.setState(ev.Engine, stateDraining, ev.At)
		return nil
	case Join:
		if fi.state[ev.Engine] == stateHealthy {
			return fmt.Errorf("cluster: churn plan joins healthy engine %d at %v", ev.Engine, ev.At)
		}
		fi.setState(ev.Engine, stateHealthy, ev.At)
		return fi.unpark(ev.At)
	}
	return fmt.Errorf("cluster: unknown churn kind %d", int(ev.Kind))
}

// unpark re-dispatches the parked work once a slot is back in service.
// The parked buffer and the spare trade places first, so work that parks
// again lands in the other buffer while this one is read.
func (fi *faultInjector) unpark(at time.Duration) error {
	tasks := fi.parked
	fi.parked, fi.spare = fi.spare[:0], tasks
	err := fi.place(tasks, at)
	clear(tasks)
	return err
}

// crash kills slot i at instant `at`: fold the dying incarnation into
// the crash counters, crash its engine (which re-arms it in place as an
// idle, out-of-service incarnation), and push the displaced work back
// through the dispatch pipeline.
func (fi *faultInjector) crash(i int, at time.Duration) error {
	e := fi.engines[i]
	// The re-arm zeroes the engine's books, so read the dying
	// incarnation's first.
	busy, preempts := e.BusyTime(), e.Preemptions()
	queued, started, err := e.Crash(at)
	if err != nil {
		return err
	}
	fi.priorBusy[i] += busy
	if fi.crashes == 0 {
		fi.crashedSched = e.SchedulerName()
	}
	fi.crashes++
	fi.crashedPreempts += preempts
	fi.setState(i, stateFailed, at)

	// Queued work just fails over; started work lost its activations
	// with the accelerator — restart from zero if the retry policy
	// allows, abandon it otherwise. RetryMax 0 means one restart ever
	// would read as "no retries", so treat it as the practical default
	// of unlimited-until-lost: a cap is opt-in via RetryMax >= 1. The
	// restarts are filtered into started's own storage (the engine's
	// crash buffer, which is ours until its next Crash) and placed after
	// the queued work.
	fi.failovers += len(queued)
	if err := fi.place(queued, at); err != nil {
		return err
	}
	restarted := started[:0]
	for _, t := range started {
		if fi.retryMax > 0 && t.Attempts >= fi.retryMax {
			fi.lost++
			continue
		}
		t.Restart()
		fi.retries++
		restarted = append(restarted, t)
	}
	return fi.place(restarted, at)
}

// place routes displaced tasks through the run's dispatcher, exactly as
// an arrival would be: stale signals, redirect on a non-placeable pick.
// With zero placeable engines the tasks park until the next
// Recover/Join. Placement charges the migration cost as a visibility
// delay (Adopt at now+cost): failing over a queued request is the same
// transfer a steal performs.
func (fi *faultInjector) place(tasks []*sched.Task, now time.Duration) error {
	for _, t := range tasks {
		fi.req = t.Request()
		idx := fi.dispatch.Pick(fi.board.Observe(now), &fi.req, now)
		if idx < 0 || idx >= len(fi.engines) {
			return fmt.Errorf("cluster: dispatcher %s picked engine %d of %d",
				fi.dispatch.Name(), idx, len(fi.engines))
		}
		idx, ok := fi.resolve(idx)
		if !ok {
			fi.parked = append(fi.parked, t)
			continue
		}
		if err := fi.engines[idx].Adopt(t, now+fi.cost); err != nil {
			return err
		}
	}
	return nil
}

// resolve bounces a pick off a non-placeable engine to the next
// placeable one in index order — the dispatch-layer redirect a router
// performs when its (stale) signals sent a request to a corpse. Returns
// false when no engine is placeable.
func (fi *faultInjector) resolve(idx int) (int, bool) {
	if fi.up(idx) {
		return idx, true
	}
	n := len(fi.engines)
	for k := 1; k < n; k++ {
		j := (idx + k) % n
		if fi.up(j) {
			fi.redirects++
			return j, true
		}
	}
	return 0, false
}

// drainNow takes a healthy slot out of rotation at the autoscaler's
// request — the same transition a plan Drain performs, minus the plan
// cursor (autoscaler actions are policy decisions, not injected faults,
// so they don't count as churn events).
func (fi *faultInjector) drainNow(i int, at time.Duration) error {
	if fi.state[i] != stateHealthy {
		return fmt.Errorf("cluster: autoscaler drains %s engine %d at %v", fi.state[i], i, at)
	}
	fi.setState(i, stateDraining, at)
	return nil
}

// joinNow returns a draining slot to service at the autoscaler's
// request, re-dispatching any work parked while the cluster was down —
// the same path a plan Join takes.
func (fi *faultInjector) joinNow(i int, at time.Duration) error {
	if fi.state[i] != stateDraining {
		return fmt.Errorf("cluster: autoscaler joins %s engine %d at %v", fi.state[i], i, at)
	}
	fi.setState(i, stateHealthy, at)
	return fi.unpark(at)
}

// finish closes the books at the end of the run: whatever is still
// parked had no engine to run on before the stream ended — lost work.
func (fi *faultInjector) finish() {
	fi.lost += len(fi.parked)
	fi.parked = nil
}
