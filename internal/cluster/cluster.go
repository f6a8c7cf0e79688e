package cluster

import (
	"fmt"
	"math"
	"slices"
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// EngineSpec sets the speed of one engine of a heterogeneous cluster;
// every engine runs under Config.Sched otherwise.
type EngineSpec struct {
	// LatencyScale is the engine's speed relative to the reference
	// hardware: every executed layer latency is multiplied by it. 1
	// means reference speed, 2 a half-speed device, 0.5 a double-speed
	// one, and 0 keeps Config.Sched.LatencyScale.
	LatencyScale float64
}

// Config sizes a cluster run.
type Config struct {
	// Engines is the number of simulated accelerators (>= 1) when Specs
	// is empty: a homogeneous cluster of identical engines.
	Engines int
	// Specs sets each engine's latency scale in a heterogeneous cluster,
	// one entry per engine. When non-empty it defines the engine count
	// (Engines must then be 0 or len(Specs)).
	Specs []EngineSpec
	// Dispatch routes arrivals to engines. Nil defaults to round-robin.
	Dispatch Dispatcher
	// Admission sheds requests before injection. Nil admits everything.
	Admission Admission
	// SignalInterval bounds the staleness of the dispatcher-visible
	// engine signals: the SignalBoard refreshes its snapshots only when
	// an arrival is at least this much virtual time past the last
	// refresh. 0 refreshes on every arrival — the idealized exact-state
	// router, bit-identical to the pre-SignalBoard dispatch layer.
	SignalInterval time.Duration
	// Rebalance is the migration policy moving queued-but-never-started
	// requests between engines (work stealing / shedding). Nil or
	// NoRebalance disables migration.
	Rebalance RebalancePolicy
	// RebalanceInterval is the minimum virtual time between rebalance
	// rounds. 0 disables migration entirely — bit-identical to a run
	// without a migration subsystem, whatever Rebalance is set to.
	RebalanceInterval time.Duration
	// MigrationCost is the per-request latency penalty of a migration,
	// in reference-hardware units, charged as a visibility delay: a
	// moved request cannot start on its new engine until the rebalance
	// instant plus this cost (see DESIGN.md §9 for why reference units).
	MigrationCost time.Duration
	// MigrationBudget caps total migrations per run. 0 means no cap
	// beyond the built-in once-per-request rule (which alone bounds
	// migrations by the stream length and makes thrashing impossible).
	MigrationBudget int
	// Churn schedules engine failures, recoveries, drains and joins at
	// fixed virtual-clock instants (see churn.go). Nil — or a plan with
	// no events — disables fault injection entirely: the run takes
	// exactly the pre-churn code path, bit-identically. The run never
	// modifies the plan: one sorted by (At, Engine), as GenChurn's is,
	// is read in place, and any other is sorted in a copy.
	Churn *ChurnPlan
	// RetryMax caps how many times one request may restart from zero
	// after engine failures before it is abandoned as lost work. 0 means
	// unlimited retries (a request is only lost if no engine ever comes
	// back for it); a cap is opt-in with RetryMax >= 1.
	RetryMax int
	// Autoscale scales the live engine set between its Min and Max by
	// draining and joining engines at signal-refresh instants (see
	// autoscale.go). Nil disables autoscaling entirely: the run takes
	// exactly the fixed-size code path, bit-identically.
	Autoscale *Autoscaler
	// Sched tunes every engine, each at its own latency scale (see
	// Specs). The cluster-wide metrics come from one sched.Aggregator
	// built from it and fed every completion in global completion order:
	// with Sched.BoundedCapture it keeps constant-size state, so a run's
	// memory no longer grows with the stream length, and Sched.Exemplars
	// sizes the cluster-wide exemplar reservoir; under full capture it
	// keeps the latencies for exact percentiles, and under
	// Sched.RecordTasks the ID-ordered union of every outcome in
	// Result.Tasks.
	Sched sched.Options
	// debugBacklogAudit, when set (same-package tests only), runs once per
	// arrival — after churn, rebalancing and autoscaling have acted, before
	// the arrival observes signals — and once after the final drain, with
	// the live engine slice and the run's resolved load estimate. The
	// invariant tests use it to compare every engine's incremental Backlog
	// sum against the O(n) EstimatedBacklog reference at each dispatch
	// instant; a returned error fails the run.
	debugBacklogAudit func(engines []*sched.Engine, load func(*sched.Task) time.Duration) error
}

// engineScales resolves each engine's latency scale: its spec's when
// nonzero, else Sched.LatencyScale, over len(Specs) engines when Specs
// is given and Engines otherwise. Every scale must be finite and
// non-negative.
func (cfg Config) engineScales() ([]float64, error) {
	n := cfg.Engines
	if len(cfg.Specs) > 0 {
		if n != 0 && n != len(cfg.Specs) {
			return nil, fmt.Errorf("cluster: Engines=%d contradicts %d specs", n, len(cfg.Specs))
		}
		n = len(cfg.Specs)
	}
	if n < 1 {
		return nil, fmt.Errorf("cluster: %d engines", n)
	}
	scales := make([]float64, n)
	for i := range scales {
		scales[i] = cfg.Sched.LatencyScale
		if i < len(cfg.Specs) && cfg.Specs[i].LatencyScale != 0 {
			scales[i] = cfg.Specs[i].LatencyScale
		}
		if s := scales[i]; s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("cluster: engine %d latency scale %v, want a finite value >= 0", i, s)
		}
	}
	return scales, nil
}

// checkKnobs rejects negative control-plane knobs, which the run would
// otherwise silently read as their zero values.
func (cfg Config) checkKnobs() error {
	switch {
	case cfg.SignalInterval < 0:
		return fmt.Errorf("cluster: negative SignalInterval %v", cfg.SignalInterval)
	case cfg.RebalanceInterval < 0:
		return fmt.Errorf("cluster: negative RebalanceInterval %v", cfg.RebalanceInterval)
	case cfg.MigrationCost < 0:
		return fmt.Errorf("cluster: negative MigrationCost %v", cfg.MigrationCost)
	case cfg.MigrationBudget < 0:
		return fmt.Errorf("cluster: negative MigrationBudget %d", cfg.MigrationBudget)
	}
	return nil
}

// Result aggregates a cluster run: the cluster-wide metrics in the
// embedded sched.Result (computed over all admitted requests, so ANTT,
// violation rate and throughput are directly comparable to a
// single-engine run), plus per-engine breakdowns and the cluster-health
// metrics. Result.Rejected counts requests shed by the admission policy;
// Goodput (SLO-met completions per second) is the metric that makes
// shedding comparable to serving everyone badly.
type Result struct {
	sched.Result
	// Dispatch, Admission, Rebalance and Engines echo the effective
	// configuration (Rebalance is "none" when migration is disabled,
	// whether by policy or by a zero interval).
	Dispatch  string
	Admission string
	Rebalance string
	Engines   int
	// PerEngine holds each engine's own Result, in engine order.
	PerEngine []sched.Result
	// Utilization is the mean busy fraction across engines over the
	// cluster makespan: sum(busy_i) / (N * makespan).
	Utilization float64
	// Imbalance is max(busy_i) / mean(busy_i): 1.0 is a perfectly
	// balanced cluster, higher means the dispatcher concentrated work.
	// The degenerate all-idle cluster (total busy time zero) reports
	// 1.0 — no work was concentrated anywhere.
	Imbalance float64
	// ChurnEvents counts fired fault-injection events (0 without a churn
	// plan). The failure-handling counters themselves — Failovers,
	// Retries, Redirects, LostWork — live on the embedded sched.Result.
	ChurnEvents int
}

// Run simulates the request slice over the configured engines: a slice
// wrapper over RunStream, fed in arrival order by sched.SortedSource
// (which copies only an unsorted slice; the caller's is never
// reordered).
func Run(newSched func(engine int) sched.Scheduler, reqs []*workload.Request, cfg Config) (Result, error) {
	return RunStream(newSched, sched.SortedSource(reqs), cfg)
}

// RunStream simulates a request stream over the configured engines, one
// scheduler per engine from newSched, interleaving all engines' events on
// one virtual clock: before each request is dispatched at its arrival
// instant, every engine has committed exactly the layers it would have
// started before that instant. Requests are consumed one at a time in
// arrival order and never materialized, so with bounded capture
// (Config.Sched.BoundedCapture) a run's memory is governed by the
// in-flight set, not the stream length. Sources yielding a negative
// arrival, or one earlier than its predecessor's, fail the run.
//
// newSched runs once per engine. A churn failure re-arms the engine in
// place around the same scheduler, emptied through its OnExtract, so a
// run whose churn plan fails an engine requires every scheduler to
// implement sched.TaskExtractor, and is rejected before it simulates
// anything otherwise.
func RunStream(newSched func(engine int) sched.Scheduler, src sched.RequestSource, cfg Config) (Result, error) {
	scales, err := cfg.engineScales()
	if err != nil {
		return Result{}, err
	}
	if err := cfg.checkKnobs(); err != nil {
		return Result{}, err
	}
	req, ok := src.Next()
	if !ok {
		return Result{}, fmt.Errorf("cluster: empty request stream")
	}
	// The cluster-wide metrics fold every completion, on every
	// incarnation, in global completion order: the engines' one observer
	// fires inside Step at each completion instant, and the cluster
	// commits engine events in one deterministic order.
	agg := sched.NewAggregator(cfg.Sched)
	agg.ReserveFor(src)
	var wins, losses int
	opts, user := cfg.Sched, cfg.Sched.Observer
	opts.Observer = func(o sched.TaskOutcome) {
		if user != nil {
			user(o)
		}
		agg.Add(o)
		// A moved request migrates strictly before it first runs, so
		// whether moving it paid off is settled at its completion.
		if o.Migrated {
			if o.Violated {
				losses++
			} else {
				wins++
			}
		}
	}
	dispatch := cfg.Dispatch
	if dispatch == nil {
		dispatch = NewRoundRobin()
	}
	if r, ok := dispatch.(resettable); ok {
		r.Reset()
	}
	admission := cfg.Admission
	if admission == nil {
		admission = AdmitAll{}
	}

	// Migration is active only with a real policy and a positive
	// interval; otherwise the run takes exactly the pre-migration code
	// path (the bit-identity anchor the equivalence tests enforce).
	migrating := cfg.Rebalance != nil && cfg.Rebalance.Name() != "none" && cfg.RebalanceInterval > 0

	// The board maintains the Backlog signal with the first load
	// estimate the run's policies provide (dispatcher first: routing,
	// admission and rebalancing share one metrics pipeline). An inactive
	// rebalance policy contributes nothing — its load estimate feeding
	// the Backlog signal would change admission/dispatch behavior and
	// break the interval-0 bit-identity contract. The curve form, when the
	// winning provider serves one, is resolved from that same provider so
	// the scalar and the curve can never come from different pipelines.
	providers := []any{dispatch, admission}
	if migrating {
		providers = append(providers, cfg.Rebalance)
	}
	if cfg.Autoscale != nil {
		// The autoscaler reads the Backlog signal, so it can keep the
		// board's load estimate alive even under a load-blind dispatcher.
		providers = append(providers, cfg.Autoscale)
	}
	var load func(*sched.Task) time.Duration
	var curve func(*sched.Task) []time.Duration
	for _, p := range providers {
		if lp, ok := p.(loadProvider); ok && lp.LoadFunc() != nil {
			load = lp.LoadFunc()
			if cp, ok := p.(curveProvider); ok {
				curve = cp.CurveFunc()
			}
			break
		}
	}
	// Bind the engines' incremental backlog accounting to the run's load
	// estimate before building them: every signal consumer (board,
	// rebalancer) then reads an O(1) running sum instead of scanning
	// queues.
	if load != nil {
		opts.BacklogEstimator, opts.BacklogCurve = load, curve
	}

	// A crash empties the scheduler through OnExtract (see the doc above).
	// The engines are peers sharing one task list: tasks move between
	// them by migration and failover.
	crashing := cfg.Churn != nil && slices.ContainsFunc(cfg.Churn.Events,
		func(ev ChurnEvent) bool { return ev.Kind == Fail })
	engines := make([]*sched.Engine, len(scales))
	for i := range engines {
		s := newSched(i)
		if _, ok := s.(sched.TaskExtractor); crashing && !ok {
			return Result{}, fmt.Errorf("cluster: churn plan fails engines, but engine %d's scheduler %s does not implement sched.TaskExtractor", i, s.Name())
		}
		opts.LatencyScale = scales[i]
		if i == 0 {
			engines[i] = sched.NewEngine(s, opts)
		} else {
			engines[i] = engines[0].NewPeer(s, opts)
		}
	}
	board := NewSignalBoard(engines, cfg.SignalInterval, load)

	var rb *Rebalancer
	if migrating {
		rb = newRebalancer(cfg.Rebalance, engines, load,
			cfg.RebalanceInterval, cfg.MigrationCost, cfg.MigrationBudget)
	}

	// Fault injection is armed only when the plan has events; a churn-free
	// run never consults the injector (the bit-identity anchor). A failure
	// re-arms the slot's engine in place, so the board and rebalancer,
	// which share the `engines` slice, always see the current incarnation.
	var fi *faultInjector
	churning := cfg.Churn != nil && len(cfg.Churn.Events) > 0
	if churning || cfg.Autoscale != nil {
		// The autoscaler actuates through the injector's lifecycle
		// machinery, so an autoscaled run arms it even without a churn
		// plan (an empty plan simply never fires).
		plan := cfg.Churn
		if plan == nil {
			plan = &ChurnPlan{}
		}
		fi, err = newFaultInjector(plan, engines, board, dispatch, cfg.MigrationCost, cfg.RetryMax)
		if err != nil {
			return Result{}, err
		}
		if rb != nil {
			rb.bindLiveness(fi.up)
		}
	}
	var sc *scaler
	if cfg.Autoscale != nil {
		if err := cfg.Autoscale.validate(len(engines)); err != nil {
			return Result{}, err
		}
		sc, err = newScaler(cfg.Autoscale, fi)
		if err != nil {
			return Result{}, err
		}
	}

	// evq keeps every engine's next event in a winner tree that picks
	// the (first-lowest-time, lowest-index) slot the linear scan it
	// replaces produced, now at O(log n) per data-plane event. Data-plane
	// mutations touch exactly one engine (Step, Inject), so the loop
	// re-syncs just that slot; control-plane actions (churn firings,
	// rebalance rounds that moved a request, autoscaler evaluations that
	// acted) can mutate arbitrary engines — or replace incarnations in
	// the shared slice — so those instants resync every slot. A round or
	// evaluation that changed nothing leaves the tree alone.
	evq := newEventTree(len(engines))
	sync := func(i int) error {
		t, ok := engines[i].NextEvent()
		if err := evq.set(i, t, ok); err != nil {
			return fmt.Errorf("%w (latency scale %g)", err, engines[i].LatencyScale())
		}
		return nil
	}
	syncAll := func() error {
		for i := range engines {
			if err := sync(i); err != nil {
				return err
			}
		}
		return nil
	}

	// run commits engine events (all of them, or only those strictly
	// before `until`), interleaving rebalance rounds when migration is
	// active: a round fires just before committing an event whose
	// instant is at least one interval past the last round, so rounds
	// land on instants the simulation already visits (arrivals and
	// engine events), the control plane runs before the data plane at
	// equal instants, and the whole schedule stays a pure function of
	// the run. Without the per-event check, rounds could fire at most
	// once per arrival and every RebalanceInterval below the mean
	// inter-arrival gap would behave identically; with it, the drain
	// tail is rebalanced too — the phase where work stealing matters
	// most, since the tail of a misrouted queue is exactly what idle
	// engines can absorb. Migration can only delay the earliest event
	// (adoptions become visible at instant + cost), never rewind it.
	run := func(until time.Duration, boundedRun bool) error {
		for {
			best, bestT, okb := evq.min()
			if okb && boundedRun && bestT >= until {
				okb = false
			}
			// Churn events interleave with engine events in global time
			// order, firing first at equal instants: the control plane
			// acts before the data plane, so a layer "completing" at the
			// exact crash instant dies with the accelerator. A failure can
			// reshape the event horizon (the crashed engine's events
			// vanish, adopters gain some), so resync every slot and
			// re-evaluate from scratch after each firing. In the unbounded
			// drain, events past the last engine event fire only while
			// work is parked: the recovery that un-parks work stranded by
			// an all-engines-down window. Once no engine has an event and
			// nothing is parked the run is over, and the rest of the plan
			// would only crash and recover idle engines, billing
			// in-service time nobody used.
			if fi != nil {
				ct, okc := fi.peek()
				if boundedRun {
					okc = okc && ct < until
				} else {
					okc = okc && (okb || len(fi.parked) > 0)
				}
				if okc && (!okb || ct <= bestT) {
					if err := fi.fireUpTo(ct); err != nil {
						return err
					}
					if err := syncAll(); err != nil {
						return err
					}
					continue
				}
			}
			if !okb {
				return nil
			}
			if rb != nil && rb.due(bestT) {
				moved, err := rb.rebalance(bestT)
				if err != nil {
					return err
				}
				// Migration may have reshaped the event horizon —
				// possibly past a pending churn instant — so resync and
				// restart the scan instead of stepping a stale pick. The
				// round just fired, so rb.due is false and this cannot
				// loop. A round that moved nothing changed no engine, so
				// the tree and the pick are still exact.
				if moved > 0 {
					if err := syncAll(); err != nil {
						return err
					}
					continue
				}
			}
			if _, err := engines[best].Step(); err != nil {
				return err
			}
			if err := sync(best); err != nil {
				return err
			}
		}
	}
	advance := func(until time.Duration) error { return run(until, true) }
	drain := func() error { return run(0, false) }

	rejected := 0
	offered := 0
	var lastArrival time.Duration
	for ; ok; req, ok = src.Next() {
		r := req
		if err := sched.CheckArrival("cluster", r, lastArrival); err != nil {
			return Result{}, err
		}
		lastArrival = r.Arrival
		offered++
		if err := advance(r.Arrival); err != nil {
			return Result{}, err
		}
		// Churn events at exactly the arrival instant fire before the
		// arrival is routed (control plane before data plane): the
		// request arrives at a cluster that has already lost — or
		// regained — the engine.
		if fi != nil {
			if at, okc := fi.peek(); okc && at <= r.Arrival {
				if err := fi.fireUpTo(r.Arrival); err != nil {
					return Result{}, err
				}
				if err := syncAll(); err != nil {
					return Result{}, err
				}
			}
		}
		if rb != nil && rb.due(r.Arrival) {
			moved, err := rb.rebalance(r.Arrival)
			if err != nil {
				return Result{}, err
			}
			if moved > 0 {
				if err := syncAll(); err != nil {
					return Result{}, err
				}
			}
		}
		if cfg.debugBacklogAudit != nil {
			if err := cfg.debugBacklogAudit(engines, load); err != nil {
				return Result{}, err
			}
		}
		sig := board.Observe(r.Arrival)
		// The autoscaler evaluates exactly once per snapshot refresh —
		// the instants where its view actually changed — before the
		// arrival is admitted (control plane before data plane). The
		// snapshot it reads is the pre-action one, so its own action
		// reaches dispatch with the same staleness every signal has: this
		// very arrival may still route to the engine just drained and
		// bounce off it as a redirect.
		if sc != nil && board.Refreshes() != sc.seen {
			sc.seen = board.Refreshes()
			acted, err := sc.evaluate(sig, r.Arrival)
			if err != nil {
				return Result{}, err
			}
			if acted {
				if err := syncAll(); err != nil {
					return Result{}, err
				}
			}
		}
		if !admission.Admit(sig, r, r.Arrival) {
			rejected++
			continue
		}
		idx := dispatch.Pick(sig, r, r.Arrival)
		if idx < 0 || idx >= len(engines) {
			return Result{}, fmt.Errorf("cluster: dispatcher %s picked engine %d of %d",
				dispatch.Name(), idx, len(engines))
		}
		// The pick may target a corpse — the board's stale snapshot can
		// keep a dead engine attractive until the next refresh. Bounce
		// to the next live engine; with the whole cluster down the
		// request is refused outright (the 503 of a serving stack),
		// counted with the admission rejections, never silently dropped.
		if fi != nil {
			live, okr := fi.resolve(idx)
			if !okr {
				rejected++
				continue
			}
			idx = live
		}
		if err := engines[idx].Inject(r, r.Arrival); err != nil {
			return Result{}, err
		}
		if err := sync(idx); err != nil {
			return Result{}, err
		}
	}
	if err := drain(); err != nil {
		return Result{}, err
	}
	if cfg.debugBacklogAudit != nil {
		if err := cfg.debugBacklogAudit(engines, load); err != nil {
			return Result{}, err
		}
	}
	if fi != nil {
		fi.finish()
	}

	res := Result{
		Dispatch:  dispatch.Name(),
		Admission: admission.Name(),
		Rebalance: "none",
		Engines:   len(engines),
		PerEngine: make([]sched.Result, len(engines)),
	}
	busy := make([]time.Duration, len(engines))
	for i, e := range engines {
		busy[i] = e.BusyTime()
		res.PerEngine[i] = e.Finish()
	}
	// PerEngine reports the slots' final incarnations; requests completed
	// by incarnations that later crashed are counted by the cluster
	// aggregator all the same, and the injector's crash counters add
	// their preemptions (a crashed incarnation drops nothing: Crash hands
	// back everything outstanding). A single incarnation passes through
	// verbatim (the bit-identity anchor with sched.Run).
	name, crashes, crashedPreempts := res.PerEngine[0].Scheduler, 0, 0
	if fi != nil && fi.crashes > 0 {
		name, crashes, crashedPreempts = fi.crashedSched, fi.crashes, fi.crashedPreempts
	}
	if crashes == 0 && len(engines) == 1 {
		res.Result = res.PerEngine[0]
	} else {
		first, _ := agg.FirstArrival()
		res.Result = agg.Result(name, first)
		res.Result.Preemptions = crashedPreempts
		for _, r := range res.PerEngine {
			res.Result.Preemptions += r.Preemptions
			res.Result.Dropped += r.Dropped
		}
	}
	res.Result.Rejected = rejected
	// The cluster's offered load is the full request stream: rejected
	// requests never reach an engine, so the per-engine Offered counters
	// (injections) exclude them. Overriding from the consumed stream
	// length keeps the outcome conservation identity closed at the
	// cluster level.
	res.Result.Offered = offered
	if fi != nil {
		res.Result.LostWork = fi.lost
		res.Result.Failovers = fi.failovers
		res.Result.Retries = fi.retries
		res.Result.Redirects = fi.redirects
		res.ChurnEvents = fi.churns
		for i := range busy {
			busy[i] += fi.priorBusy[i]
		}
		// Every injected request must land in exactly one outcome class;
		// a failure here is a simulator bug (silently dropped or
		// double-counted work), not a runtime condition.
		if err := sched.CheckOutcomeConservation(res.Result); err != nil {
			return Result{}, err
		}
	}
	if sc != nil {
		res.Result.ScaleUps = sc.ups
		res.Result.ScaleDowns = sc.downs
	}
	if rb != nil {
		res.Rebalance = rb.policy.Name()
		res.Migrations = rb.Migrations()
		res.MigrationWins, res.MigrationLosses = wins, losses
	}

	if fi != nil {
		// Lifecycle-aware capacity accounting: close every open
		// in-service span at the last committed instant, then compute
		// utilization and imbalance over the *live* engine set only —
		// slots the autoscaler parked for the whole run (or that churn
		// kept dead) must not dilute the metrics of the engines that
		// actually served. EngineSeconds bills exactly the in-service
		// spans: the operator pays for engines while they are in
		// rotation, not for parked capacity.
		var end time.Duration
		for _, e := range engines {
			if t := e.Now(); t > end {
				end = t
			}
		}
		inService := fi.closeService(end)
		res.Result.EngineSeconds = inService.Seconds()
		var totalBusy, maxBusy time.Duration
		liveSlots := 0
		for i, b := range busy {
			if fi.serviceTime[i] <= 0 {
				continue
			}
			liveSlots++
			totalBusy += b
			if b > maxBusy {
				maxBusy = b
			}
		}
		if inService > 0 {
			res.Utilization = float64(totalBusy) / float64(inService)
		}
		if totalBusy > 0 {
			res.Imbalance = float64(maxBusy) / (float64(totalBusy) / float64(liveSlots))
		} else {
			res.Imbalance = 1
		}
		return res, nil
	}

	// Fixed-size path: the cluster bills every engine for the whole
	// makespan, and all slots enter the balance metrics.
	res.Result.EngineSeconds = float64(len(engines)) * res.Makespan.Seconds()
	var totalBusy, maxBusy time.Duration
	for _, b := range busy {
		totalBusy += b
		if b > maxBusy {
			maxBusy = b
		}
	}
	if res.Makespan > 0 {
		res.Utilization = float64(totalBusy) / (float64(len(engines)) * float64(res.Makespan))
	}
	if totalBusy > 0 {
		mean := float64(totalBusy) / float64(len(engines))
		res.Imbalance = float64(maxBusy) / mean
	} else {
		// All engines idle: nothing was concentrated anywhere, which is
		// the perfectly balanced case, not a "better than balanced" 0.
		res.Imbalance = 1
	}
	return res, nil
}
