package cluster

import (
	"fmt"
	"time"

	"sparsedysta/internal/sched"
)

// This file is the migration subsystem: a Rebalancer that, at
// interval-gated instants of virtual time, moves queued-but-never-started
// requests between engines under a pluggable RebalancePolicy. It is the
// first feature that mutates engine queues from outside the engine, so it
// leans entirely on the sched.Engine extraction contract
// (Extract/Adopt/Migratable): the engine guarantees scheduler-state
// integrity; this layer decides who moves where, charges the migration
// cost, and makes thrashing impossible (once-per-request plus an optional
// total budget).
//
// Migration decisions read LIVE engine state, deliberately unlike
// dispatch: the router's admission and routing run on the SignalBoard's
// possibly-stale snapshots (a centralized metrics pipeline), while
// rebalancing models peer-to-peer work stealing — an engine always knows
// its own queue exactly, which is precisely why stealing can recover the
// damage stale dispatch signals cause. What the rebalancer shares with
// the board is its timing discipline: rebalance instants derive from the
// request stream and the interval alone (no wall clock), so a migrating
// run stays a pure function of (schedulers, stream, config).

// Candidate is one migratable request as a policy sees it.
type Candidate struct {
	// Task is the queued-but-never-started request (read-only to
	// policies; the Rebalancer performs the actual move).
	Task *sched.Task
	// Est is the task's estimated service demand in reference-hardware
	// units under the run's load estimator (a uniform placeholder when
	// the run has none), the data-dependent cost a rebalancing decision
	// must weigh — two requests to the same model can differ ~40% in
	// effective work across sparsity patterns.
	Est time.Duration
}

// EngineView is one engine's live state at a rebalance instant. Its
// fields cost O(1) to fill; the engine's candidate list is built only
// when a policy first asks for it (Eligible).
type EngineView struct {
	// Engine is the index into the cluster's engine slice.
	Engine int
	// LatencyScale is the engine's static capacity spec (1 = reference).
	LatencyScale float64
	// Outstanding is the live injected-but-uncompleted request count.
	Outstanding int
	// NormBacklog is the live capacity-normalized backlog: the summed
	// Est of every outstanding request, scaled by LatencyScale — the
	// engine's predicted drain time as a float64 of duration units.
	NormBacklog float64
	// Down reports the engine is out of service (failed or draining) at
	// this rebalance instant. Unlike the dispatch-layer signal this is
	// live truth, not a stale snapshot — peers always know who answers.
	// Policies must neither raid nor feed a Down engine; the Rebalancer
	// rejects such moves as malformed. The zero value is "in service".
	Down bool
	// rb holds the round's candidate cache; nil for a view the
	// Rebalancer did not build.
	rb *Rebalancer
}

// Eligible lists the engine's migratable requests in ascending task-ID
// order, excluding requests that already migrated once. The first call
// in a round builds the list — a queue walk plus one load estimate per
// candidate — and caches it, so later calls through any copy of the view
// return the same slice until the next round. A view the Rebalancer did
// not build has no candidates.
func (v EngineView) Eligible() []Candidate {
	if v.rb == nil {
		return nil
	}
	return v.rb.eligible(v.Engine)
}

// setEligible writes a consumed list back to the round's cache, so every
// later reader in the round sees only what is left.
func (v EngineView) setEligible(list []Candidate) { v.rb.cands[v.Engine].list = list }

// Move is one proposed migration: the request with task ID moves from
// engines[From] to engines[To].
type Move struct {
	ID       int
	From, To int
}

// RebalancePolicy proposes migrations. Plan is called at each rebalance
// instant with the live per-engine views; it must be a deterministic
// function of (views, now, cost) and must only reference eligible task
// IDs. The Rebalancer executes the plan in order, dropping moves beyond
// the migration budget, so policies should emit their most valuable
// moves first. The views are scratch the Rebalancer rebuilds from live
// engine state every round, so policies may consume them in place —
// mutate NormBacklog as planned moves accumulate, reorder the slice
// Eligible returns — instead of copying them. A view's fields cost O(1);
// Eligible builds the engine's candidate list on its first call in the
// round, so a policy should test the cheap fields first and read only
// the lists of engines it may act on.
type RebalancePolicy interface {
	// Name identifies the policy in results.
	Name() string
	// Plan proposes migrations at virtual time now; cost is the
	// per-request migration latency penalty the Rebalancer will charge.
	Plan(views []EngineView, now, cost time.Duration) []Move
}

// NoRebalance is the identity policy: no request ever moves. A cluster
// configured with it (or with no policy, or interval 0) is bit-identical
// to one without a migration subsystem at all.
type NoRebalance struct{}

// Name implements RebalancePolicy.
func (NoRebalance) Name() string { return "none" }

// Plan implements RebalancePolicy.
func (NoRebalance) Plan([]EngineView, time.Duration, time.Duration) []Move { return nil }

// Steal is work stealing: idle engines pull from the engine with the
// longest normalized backlog. "Idle" follows the classic work-stealing
// definition — nothing *waiting* (at most the currently running request
// outstanding), the moment a worker's own deque runs dry — not "fully
// drained", which at serving load almost never happens and would leave
// the thief starved for a full round trip. Each thief takes up to half
// of the victim's eligible queue, newest arrivals first: the oldest
// queued request is about to run on the victim and is closest to its
// deadline, so it can least afford the transfer penalty, while the
// newest would wait the longest and carries the most slack across the
// move.
type Steal struct {
	// Load estimates a queued task's remaining work in reference units
	// (typically SparsityAwareLoad); it backs the views' NormBacklog and
	// Candidate.Est through the loadProvider chain. Nil falls back to a
	// queue-length proxy.
	Load func(*sched.Task) time.Duration
	// Curve is Load's optional curve form (see SparsityAwareCurve): it
	// lets the engines' incremental backlog accounting index instead of
	// re-estimating. Must agree with Load.
	Curve func(*sched.Task) []time.Duration
}

// Name implements RebalancePolicy.
func (Steal) Name() string { return "steal" }

// LoadFunc exposes the estimate to the SignalBoard and Rebalancer
// (loadProvider); the dispatcher's own estimate, if any, takes precedence
// so the whole run shares one metrics pipeline.
func (s Steal) LoadFunc() func(*sched.Task) time.Duration { return s.Load }

// CurveFunc exposes the estimate's curve form (curveProvider).
func (s Steal) CurveFunc() func(*sched.Task) []time.Duration { return s.Curve }

// Plan implements RebalancePolicy: for each idle engine in index order,
// raid the engine with the currently longest normalized backlog. Backlogs
// are adjusted as moves accumulate so two idle thieves in one round never
// both raid the same victim blindly. A victim must have work actually
// waiting behind its running request (Outstanding >= 2) and a longer
// normalized backlog than the thief — without that benefit check two
// near-idle engines would swap their single queued tasks, delaying both
// by the migration cost for zero gain and burning their once-ever
// migration allowance. The victim test reads the candidate list last,
// after the O(1) fields, so a round with no thief–victim pair builds no
// list.
// The plan consumes the views in place (the Plan contract permits it):
// NormBacklog tracks planned moves, and the victim's list shrinks by
// swap-delete as candidates are taken and is written back to the round's
// cache, so a second thief raiding the same victim sees only what is
// left. Swap-delete reorders the list, but the selection is a strict
// maximum over (Arrival, ID) with unique IDs, so the pick — and
// therefore the emitted plan — is independent of element order.
func (Steal) Plan(views []EngineView, _, _ time.Duration) []Move {
	var moves []Move
	for thief := range views {
		if views[thief].Down || views[thief].Outstanding > 1 {
			continue
		}
		victim := -1
		for i := range views {
			if i == thief || views[i].Down || views[i].Outstanding < 2 ||
				views[i].NormBacklog <= views[thief].NormBacklog || len(views[i].Eligible()) == 0 {
				continue
			}
			if victim < 0 || views[i].NormBacklog > views[victim].NormBacklog {
				victim = i
			}
		}
		if victim < 0 {
			continue
		}
		// Take up to half the victim's eligible queue, newest arrival
		// (then highest ID) first, stopping once the imbalance the raid
		// was fixing is gone.
		rem := views[victim].Eligible()
		take := (len(rem) + 1) / 2
		for k := 0; k < take && views[victim].NormBacklog > views[thief].NormBacklog; k++ {
			best := 0
			for i, c := range rem {
				b := rem[best]
				if c.Task.Arrival > b.Task.Arrival ||
					(c.Task.Arrival == b.Task.Arrival && c.Task.ID > b.Task.ID) {
					best = i
				}
			}
			c := rem[best]
			rem[best] = rem[len(rem)-1]
			rem = rem[:len(rem)-1]
			moves = append(moves, Move{ID: c.Task.ID, From: victim, To: thief})
			shift := float64(c.Est)
			views[victim].NormBacklog -= shift * views[victim].LatencyScale
			views[thief].NormBacklog += shift * views[thief].LatencyScale
		}
		views[victim].setEligible(rem)
	}
	return moves
}

// Shed is predicted-SLO shedding: an engine whose backlog pushes a queued
// request past its deadline hands that request to the engine predicting
// the earliest completion for it — but only when the receiving engine
// (after the migration cost) is predicted to actually save it. Unlike
// Steal it triggers before anyone is idle, and unlike a threshold on
// queue length it is per-request and data-dependent: the same backlog
// dooms a tight-SLO request while a slack one rides it out.
type Shed struct {
	// Load estimates a queued task's remaining work in reference units
	// (see Steal.Load).
	Load func(*sched.Task) time.Duration
	// Curve is Load's optional curve form (see Steal.Curve).
	Curve func(*sched.Task) []time.Duration
}

// Name implements RebalancePolicy.
func (Shed) Name() string { return "shed" }

// LoadFunc exposes the estimate to the SignalBoard and Rebalancer
// (loadProvider).
func (s Shed) LoadFunc() func(*sched.Task) time.Duration { return s.Load }

// CurveFunc exposes the estimate's curve form (curveProvider).
func (s Shed) CurveFunc() func(*sched.Task) []time.Duration { return s.Curve }

// Plan implements RebalancePolicy: engines in index order, candidates in
// ascending task-ID order; drain-time predictions are adjusted as moves
// accumulate.
// Like Steal.Plan, the plan consumes the views in place: NormBacklog is
// the working drain-time prediction, updated as moves accumulate.
func (Shed) Plan(views []EngineView, now, cost time.Duration) []Move {
	var moves []Move
	for i := range views {
		if views[i].Down {
			continue
		}
		for _, c := range views[i].Eligible() {
			// Predicted completion here: behind the engine's whole
			// normalized backlog (which includes this request).
			here := float64(now) + views[i].NormBacklog
			if here <= float64(c.Task.Deadline()) {
				continue
			}
			service := float64(c.Est)
			best, bestDone := -1, 0.0
			for j := range views {
				if j == i || views[j].Down {
					continue
				}
				done := float64(now+cost) + views[j].NormBacklog + service*views[j].LatencyScale
				if best < 0 || done < bestDone {
					best, bestDone = j, done
				}
			}
			if best < 0 || bestDone > float64(c.Task.Deadline()) {
				continue // nobody is predicted to save it: keep it local
			}
			moves = append(moves, Move{ID: c.Task.ID, From: i, To: best})
			views[i].NormBacklog -= service * views[i].LatencyScale
			views[best].NormBacklog += service * views[best].LatencyScale
		}
	}
	return moves
}

// Rebalancer executes a RebalancePolicy over the cluster's engines. It is
// created by Run when migration is enabled; all state is per-run.
type Rebalancer struct {
	policy   RebalancePolicy
	engines  []*sched.Engine
	load     func(*sched.Task) time.Duration
	interval time.Duration
	cost     time.Duration
	budget   int
	up       func(engine int) bool
	last     time.Duration
	moved    map[int]bool
	count    int
	// uniform records that the run has no load estimate and load is the
	// 1ms placeholder, so a view's backlog is Outstanding() placeholder
	// units. Otherwise runCluster has bound every engine spec, the
	// replacement incarnations' included, to load, and the backlog is the
	// engines' incremental sum.
	uniform bool
	// viewBuf, cands and migBuf are per-round scratch, reused across
	// rebalance instants: views() rewrites the views and invalidates the
	// candidate cache, Eligible refills one engine's list in place, and
	// policies may consume both (see RebalancePolicy.Plan). One
	// allocation per high-water mark instead of one per round.
	viewBuf []EngineView
	cands   []candidates
	migBuf  []*sched.Task
}

// candidates is one engine's slot in the per-round candidate cache.
type candidates struct {
	built bool
	list  []Candidate
}

// bindLiveness attaches the fault injector's availability source: views
// carry live (not stale) liveness, and moves touching a Down engine are
// rejected as malformed. Unbound, every engine is in service.
func (rb *Rebalancer) bindLiveness(up func(engine int) bool) { rb.up = up }

// newRebalancer wires the policy to the engines. load is the shared
// per-task estimate of the run's metrics pipeline (nil = queue-length
// proxy); interval must be positive (interval 0 means "no rebalancer" and
// is handled by Run, not here).
func newRebalancer(policy RebalancePolicy, engines []*sched.Engine,
	load func(*sched.Task) time.Duration, interval, cost time.Duration, budget int) *Rebalancer {
	uniform := load == nil
	if uniform {
		// Uniform placeholder so NormBacklog degrades to a capacity-
		// weighted queue length instead of an all-zero signal.
		load = func(*sched.Task) time.Duration { return time.Millisecond }
	}
	return &Rebalancer{
		policy:   policy,
		engines:  engines,
		load:     load,
		interval: interval,
		cost:     cost,
		budget:   budget,
		moved:    map[int]bool{},
		uniform:  uniform,
		viewBuf:  make([]EngineView, len(engines)),
		cands:    make([]candidates, len(engines)),
	}
}

// due reports whether a rebalance instant has been reached, following the
// SignalBoard's refresh discipline: at least one interval of virtual time
// past the last rebalance. An exhausted migration budget ends rounds for
// good — building views and planning moves that the budget would
// immediately discard is pure waste.
func (rb *Rebalancer) due(now time.Duration) bool {
	if rb.budget > 0 && rb.count >= rb.budget {
		return false
	}
	return now-rb.last >= rb.interval
}

// Migrations returns the number of executed migrations so far.
func (rb *Rebalancer) Migrations() int { return rb.count }

// Moved reports whether the request with the given task ID has migrated.
func (rb *Rebalancer) Moved(id int) bool { return rb.moved[id] }

// views snapshots live engine state for the policy: the O(1) fields of
// every engine, with its candidate cache invalidated. Each list is built
// when a policy first reads it (EngineView.Eligible), excluding requests
// that already migrated (once per request, ever — the invariant that
// makes thrashing structurally impossible: a request's total migration
// delay is bounded by one cost, and ping-pong cycles cannot form).
func (rb *Rebalancer) views() []EngineView {
	views := rb.viewBuf
	for i, e := range rb.engines {
		backlog := e.Backlog()
		if rb.uniform {
			// Bit-identical to scanning with the placeholder: every
			// outstanding request (ready or pending) contributes exactly
			// one placeholder unit.
			backlog = time.Duration(e.Outstanding()) * time.Millisecond
		}
		rb.cands[i].built = false
		views[i] = EngineView{
			Engine:       i,
			LatencyScale: e.LatencyScale(),
			Outstanding:  e.Outstanding(),
			NormBacklog:  float64(backlog) * e.LatencyScale(),
			Down:         rb.up != nil && !rb.up(i),
			rb:           rb,
		}
	}
	return views
}

// eligible returns engine i's candidate list for the round, building it
// on first use. Nothing moves while a policy plans, so a list built late
// in Plan equals one built when the round began.
func (rb *Rebalancer) eligible(i int) []Candidate {
	c := &rb.cands[i]
	if c.built {
		return c.list
	}
	rb.migBuf = rb.engines[i].MigratableInto(rb.migBuf[:0])
	c.list = c.list[:0]
	for _, t := range rb.migBuf {
		if !rb.moved[t.ID] {
			c.list = append(c.list, Candidate{Task: t, Est: rb.load(t)})
		}
	}
	c.built = true
	return c.list
}

// rebalance runs one policy round at virtual time now: plan on live
// views, then execute the plan prefix the budget allows, charging each
// moved request the migration cost as a visibility delay on the adopting
// engine. It returns the number of requests moved; a round that moved
// none changed no engine. A malformed plan (unknown ID, out-of-range
// engine, self-move) fails the run — policies are deterministic functions
// and a bad move is a bug, not a runtime condition.
func (rb *Rebalancer) rebalance(now time.Duration) (int, error) {
	rb.last = now
	before := rb.count
	moves := rb.policy.Plan(rb.views(), now, rb.cost)
	for _, m := range moves {
		if rb.budget > 0 && rb.count >= rb.budget {
			break
		}
		if m.From < 0 || m.From >= len(rb.engines) || m.To < 0 || m.To >= len(rb.engines) || m.From == m.To {
			return 0, fmt.Errorf("cluster: policy %s proposed invalid move %+v", rb.policy.Name(), m)
		}
		if rb.up != nil && (!rb.up(m.From) || !rb.up(m.To)) {
			return 0, fmt.Errorf("cluster: policy %s moved request %d through an out-of-service engine (%d -> %d)",
				rb.policy.Name(), m.ID, m.From, m.To)
		}
		if rb.moved[m.ID] {
			return 0, fmt.Errorf("cluster: policy %s re-moved request %d", rb.policy.Name(), m.ID)
		}
		t, err := rb.engines[m.From].Extract(m.ID)
		if err != nil {
			return 0, fmt.Errorf("cluster: policy %s: %w", rb.policy.Name(), err)
		}
		if err := rb.engines[m.To].Adopt(t, now+rb.cost); err != nil {
			return 0, fmt.Errorf("cluster: policy %s: %w", rb.policy.Name(), err)
		}
		rb.moved[m.ID] = true
		rb.count++
	}
	return rb.count - before, nil
}
