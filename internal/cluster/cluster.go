package cluster

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/stats"
	"sparsedysta/internal/workload"
)

// EngineSpec configures one engine of a heterogeneous cluster.
type EngineSpec struct {
	// Sched tunes the engine (preemption overhead, recording).
	Sched sched.Options
	// LatencyScale is the engine's speed relative to the reference
	// hardware: every executed layer latency is multiplied by it. 0 and
	// 1 mean reference speed, 2 a half-speed device, 0.5 a double-speed
	// one. It overrides Sched.LatencyScale when nonzero.
	LatencyScale float64
}

// Config sizes a cluster run.
type Config struct {
	// Engines is the number of simulated accelerators (>= 1) when Specs
	// is empty: a homogeneous cluster of identical engines under Sched.
	Engines int
	// Specs configures a heterogeneous cluster, one entry per engine.
	// When non-empty it defines the engine count (Engines must then be 0
	// or len(Specs)).
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
	// exactly the pre-churn code path, bit-identically.
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
	// Sched tunes each engine of a homogeneous cluster (ignored for
	// engines covered by Specs). With Sched.BoundedCapture set the
	// cluster-wide aggregate is computed from constant-size streaming
	// accumulators instead of the union of per-task outcomes, so a run's
	// memory no longer grows with the stream length; Sched.Exemplars
	// then sizes the cluster-wide exemplar reservoir.
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

// engineSpecs resolves the per-engine specs: Specs verbatim when given,
// else Engines copies of the homogeneous Sched options. Every resolved
// latency scale must be finite and non-negative.
func (cfg Config) engineSpecs() ([]EngineSpec, error) {
	var specs []EngineSpec
	switch {
	case len(cfg.Specs) > 0:
		if cfg.Engines != 0 && cfg.Engines != len(cfg.Specs) {
			return nil, fmt.Errorf("cluster: Engines=%d contradicts %d specs",
				cfg.Engines, len(cfg.Specs))
		}
		specs = append([]EngineSpec(nil), cfg.Specs...)
	case cfg.Engines < 1:
		return nil, fmt.Errorf("cluster: %d engines", cfg.Engines)
	default:
		specs = make([]EngineSpec, cfg.Engines)
		for i := range specs {
			specs[i].Sched = cfg.Sched
		}
	}
	for i := range specs {
		if specs[i].LatencyScale != 0 {
			specs[i].Sched.LatencyScale = specs[i].LatencyScale
		}
		if s := specs[i].Sched.LatencyScale; s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("cluster: engine %d latency scale %v, want a finite value >= 0", i, s)
		}
	}
	return specs, nil
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

// Run simulates the request stream over the configured engines, one fresh
// scheduler per engine from newSched, interleaving all engines' events on
// one virtual clock: before each request is dispatched at its arrival
// instant, every engine has committed exactly the layers it would have
// started before that instant.
func Run(newSched func(engine int) sched.Scheduler, reqs []*workload.Request, cfg Config) (Result, error) {
	if len(reqs) == 0 {
		if _, err := cfg.engineSpecs(); err != nil {
			return Result{}, err
		}
		return Result{}, fmt.Errorf("cluster: empty request stream")
	}
	sorted := append([]*workload.Request(nil), reqs...)
	workload.SortByArrival(sorted)
	return runCluster(newSched, sched.NewSliceSource(sorted), sorted, cfg)
}

// RunStream is Run over a request iterator: requests are consumed one at
// a time in arrival order and never materialized, so with bounded
// capture (Config.Sched.BoundedCapture) a run's memory is governed by
// the in-flight set, not the stream length. The schedule — and with
// matching capture options the Result — is bit-identical to Run on the
// materialized stream, because the arrival loop already consumed its
// input strictly in arrival order; the equivalence tests pin this.
// Sources yielding out-of-order arrivals fail the run.
func RunStream(newSched func(engine int) sched.Scheduler, src sched.RequestSource, cfg Config) (Result, error) {
	return runCluster(newSched, src, nil, cfg)
}

// runCluster is the shared implementation behind Run and RunStream.
// materialized is the already-sorted request slice on the slice path and
// nil on the streaming path; it only feeds the fault injector's upfront
// displaced-work map — the streaming path registers requests at
// injection instead (and both paths unregister at completion), so the
// lookups the failover machinery performs are identical.
func runCluster(newSched func(engine int) sched.Scheduler, src sched.RequestSource,
	materialized []*workload.Request, cfg Config) (Result, error) {
	specs, err := cfg.engineSpecs()
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
	// Capture mode is a cluster-wide property: the full-capture
	// aggregate needs every engine's outcomes and the bounded one needs
	// every engine's observer, so a mix has no consistent aggregation.
	bounded := specs[0].Sched.BoundedCapture
	for i := range specs {
		if specs[i].Sched.BoundedCapture != bounded {
			return Result{}, fmt.Errorf("cluster: engine specs mix bounded and full capture")
		}
	}
	// wantTasks snapshots the caller's recording request before the
	// capture forcing below, for the post-aggregation stripping.
	wantTasks := make([]bool, len(specs))
	for i := range wantTasks {
		wantTasks[i] = specs[i].Sched.RecordTasks
	}
	var agg *boundedAgg
	if bounded {
		agg = newBoundedAgg(cfg.Sched.Exemplars, cfg.Sched.ExemplarSeed)
	}
	// fiRef is bound after the injector is armed; the observers close
	// over it so replacement incarnations (built from these same specs)
	// inherit the wiring.
	var fiRef *faultInjector
	for i := range specs {
		if !bounded {
			// Full capture: engines record per-task outcomes regardless of
			// the caller's options — the cluster-wide latency percentiles
			// need every request's turnaround, not per-engine summaries.
			// The extra field is stripped below when the caller didn't ask
			// for it.
			specs[i].Sched.RecordTasks = true
		}
		user := specs[i].Sched.Observer
		specs[i].Sched.Observer = func(o sched.TaskOutcome) {
			if user != nil {
				user(o)
			}
			if agg != nil {
				agg.note(o)
			}
			if fiRef != nil {
				fiRef.forget(o.ID)
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
	// queues. The binding lives in the specs, so replacement incarnations
	// the fault injector builds after a crash inherit it.
	if load != nil {
		for i := range specs {
			specs[i].Sched.BacklogEstimator = load
			specs[i].Sched.BacklogCurve = curve
		}
	}

	engines := make([]*sched.Engine, len(specs))
	for i := range engines {
		engines[i] = sched.NewEngine(newSched(i), specs[i].Sched)
	}
	board := NewSignalBoard(engines, cfg.SignalInterval, load)

	var rb *Rebalancer
	if migrating {
		rb = newRebalancer(cfg.Rebalance, engines, load,
			cfg.RebalanceInterval, cfg.MigrationCost, cfg.MigrationBudget)
	}
	if agg != nil && rb != nil {
		agg.movedFn = rb.Moved
	}

	// Fault injection is armed only when the plan has events; a churn-free
	// run never consults the injector (the bit-identity anchor). The
	// injector mutates the shared `engines` slice in place on failures, so
	// the board and rebalancer always see the current incarnations.
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
		fi, err = newFaultInjector(plan, engines, specs, newSched,
			board, dispatch, materialized, cfg.MigrationCost, cfg.RetryMax)
		if err != nil {
			return Result{}, err
		}
		fiRef = fi
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

	// evq keeps every engine's next event in an indexed min-heap keyed
	// (time, engine index) — the same (first-lowest-time, lowest-index)
	// order the linear scan it replaces produced, now at O(log n) per
	// data-plane event. Data-plane mutations touch exactly one engine
	// (Step, Inject), so the loop re-syncs just that slot; control-plane
	// actions (churn firings, rebalance rounds that moved a request,
	// autoscaler evaluations that acted) can mutate arbitrary engines — or
	// replace incarnations in the shared slice — so those instants resync
	// the whole heap. A round or evaluation that changed nothing leaves
	// the heap alone.
	evq := newEventHeap(len(engines))
	sync := func(i int) {
		t, ok := engines[i].NextEvent()
		evq.set(i, t, ok)
	}
	syncAll := func() {
		for i := range engines {
			sync(i)
		}
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
			// drain this also fires events past the last engine event —
			// the recovery that un-parks work stranded by an
			// all-engines-down window.
			if fi != nil {
				if ct, okc := fi.peek(); okc && (!boundedRun || ct < until) {
					if !okb || ct <= bestT {
						if err := fi.fireUpTo(ct); err != nil {
							return err
						}
						syncAll()
						continue
					}
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
				// the heap and the pick are still exact.
				if moved > 0 {
					syncAll()
					continue
				}
			}
			if _, err := engines[best].Step(); err != nil {
				return err
			}
			sync(best)
		}
	}
	advance := func(until time.Duration) error { return run(until, true) }
	drain := func() error { return run(0, false) }

	rejected := 0
	offered := 0
	var lastArrival int64 = -1
	for ; ok; req, ok = src.Next() {
		r := req
		if int64(r.Arrival) < lastArrival {
			return Result{}, fmt.Errorf(
				"cluster: request stream yielded request %d at %v after an arrival at %v (stream must be sorted)",
				r.ID, r.Arrival, time.Duration(lastArrival))
		}
		lastArrival = int64(r.Arrival)
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
				syncAll()
			}
		}
		if rb != nil && rb.due(r.Arrival) {
			moved, err := rb.rebalance(r.Arrival)
			if err != nil {
				return Result{}, err
			}
			if moved > 0 {
				syncAll()
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
				syncAll()
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
			if materialized == nil {
				fi.note(r)
			}
		}
		if err := engines[idx].Inject(r, r.Arrival); err != nil {
			return Result{}, err
		}
		sync(idx)
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
	// by incarnations that later crashed are sealed results the injector
	// kept, and they join the cluster-wide aggregate so a served request
	// counts whether or not its engine outlived it.
	combined := res.PerEngine
	if fi != nil && len(fi.sealed) > 0 {
		combined = append(append([]sched.Result(nil), fi.sealed...), res.PerEngine...)
	}
	if agg != nil && len(combined) > 1 {
		// Bounded capture: the cluster-wide metrics come from the
		// streaming accumulators the observers fed — there is no outcome
		// union to fold. The per-incarnation counters that aggregate()
		// sums are summed the same way here. A single incarnation passes
		// through aggregate()'s verbatim path below instead, mirroring
		// the full-capture single-engine anchor.
		res.Result = agg.finish(combined[0].Scheduler)
		for _, r := range combined {
			res.Result.Preemptions += r.Preemptions
			res.Result.Dropped += r.Dropped
		}
	} else {
		res.Result = aggregate(combined)
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
		// Win/loss accounting: did each moved request ultimately make
		// its SLO? Full capture reads the union of outcomes (recorded
		// unconditionally above) before the RecordTasks stripping below;
		// bounded capture resolved each completion against rb.Moved at
		// its completion instant, since no outcomes survive the run.
		res.Rebalance = rb.policy.Name()
		res.Migrations = rb.Migrations()
		if agg != nil {
			res.MigrationWins, res.MigrationLosses = agg.wins, agg.losses
		} else {
			for _, o := range res.Result.Tasks {
				if !rb.Moved(o.ID) {
					continue
				}
				if o.Violated {
					res.MigrationLosses++
				} else {
					res.MigrationWins++
				}
			}
		}
	}
	// Strip the outcomes the caller never asked for: full-capture engines
	// record them unconditionally (the aggregation above needs them), but
	// the caller's request lives in the pre-forcing snapshot (which
	// mirrors cfg.Sched on the homogeneous path).
	anyTasks := false
	for i := range specs {
		if wantTasks[i] {
			anyTasks = true
		} else {
			res.PerEngine[i].Tasks = nil
		}
	}
	if !anyTasks {
		res.Tasks = nil
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

// aggregate folds per-engine results into one cluster-wide sched.Result.
// A single engine's result passes through verbatim (the bit-identity
// anchor); for N > 1 the metrics are recomputed from the union of all
// engines' per-task outcomes, in task-ID order, with the same formulas
// sched.Run uses. Timelines stay per-engine: a cluster has no single
// execution order to draw.
func aggregate(per []sched.Result) sched.Result {
	if len(per) == 1 {
		return per[0]
	}
	agg := sched.Result{Scheduler: per[0].Scheduler}
	var outcomes []sched.TaskOutcome
	for _, r := range per {
		agg.Preemptions += r.Preemptions
		agg.Dropped += r.Dropped
		outcomes = append(outcomes, r.Tasks...)
	}
	if len(outcomes) == 0 {
		return agg
	}
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].ID < outcomes[j].ID })

	ratios := make([]float64, len(outcomes))
	latencies := make([]float64, len(outcomes))
	violations := 0
	firstArrival, lastDone := outcomes[0].Arrival, time.Duration(0)
	perModel := map[string]sched.ModelMetrics{}
	for i, o := range outcomes {
		ratios[i] = o.NTT
		latencies[i] = float64(o.Completion - o.Arrival)
		if o.Violated {
			violations++
		}
		if o.Arrival < firstArrival {
			firstArrival = o.Arrival
		}
		if o.Completion > lastDone {
			lastDone = o.Completion
		}
		m := perModel[o.Model]
		m.Requests++
		m.ANTT += o.NTT
		if o.Violated {
			m.ViolationRate++
		}
		perModel[o.Model] = m
	}
	for name, m := range perModel {
		m.ANTT /= float64(m.Requests)
		m.ViolationRate /= float64(m.Requests)
		perModel[name] = m
	}
	agg.Requests = len(outcomes)
	agg.Violations = violations
	agg.ANTT = stats.Mean(ratios)
	agg.ViolationRate = float64(violations) / float64(len(outcomes))
	agg.MeanLatency = time.Duration(stats.Mean(latencies))
	// latencies is local scratch and the mean above has read it in ID
	// order, so it is sorted in place, once, for the three percentiles.
	sort.Float64s(latencies)
	agg.P50Latency = time.Duration(stats.PercentileSorted(latencies, 50))
	agg.P95Latency = time.Duration(stats.PercentileSorted(latencies, 95))
	agg.P99Latency = time.Duration(stats.PercentileSorted(latencies, 99))
	agg.Makespan = lastDone - firstArrival
	if agg.Makespan > 0 {
		agg.Throughput = float64(len(outcomes)) / agg.Makespan.Seconds()
		agg.Goodput = float64(len(outcomes)-violations) / agg.Makespan.Seconds()
	}
	agg.PerModel = perModel
	agg.Tasks = outcomes
	return agg
}
