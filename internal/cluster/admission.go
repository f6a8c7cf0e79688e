package cluster

import (
	"fmt"
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// Admission decides, at the dispatch layer and before any engine is
// touched, whether an arriving request enters the cluster at all. Shed
// requests are counted in Result.Rejected and appear in no other metric;
// the point of shedding is to protect the goodput of admitted traffic
// when the cluster cannot serve everyone inside the SLO anyway.
//
// Admit reads the same (possibly stale) signals the dispatcher does, so
// an admission decision is as delayed as the routing decision — a real
// router has one metrics pipeline, not two. Implementations must be
// deterministic: same signals, same request, same answer.
type Admission interface {
	// Name identifies the policy in results.
	Name() string
	// Admit reports whether the request arriving at now may be injected.
	Admit(sig []EngineSignal, r *workload.Request, now time.Duration) bool
}

// AdmitAll is the no-op policy: every request enters. The default.
type AdmitAll struct{}

// Name implements Admission.
func (AdmitAll) Name() string { return "none" }

// Admit implements Admission.
func (AdmitAll) Admit([]EngineSignal, *workload.Request, time.Duration) bool { return true }

// QueueCap sheds a request when no engine has room: every engine's
// outstanding count is already at or above Cap. The classic bounded-queue
// front door — load-aware but deadline-blind.
type QueueCap struct {
	// Cap is the per-engine outstanding-request bound (>= 1).
	Cap int
}

// Name implements Admission.
func (q QueueCap) Name() string { return fmt.Sprintf("queue-cap:%d", q.Cap) }

// Admit implements Admission. Engines marked Down don't count as room:
// a crashed engine's snapshot (once refreshed) shows zero outstanding,
// and without the check the front door would admit everything into a
// shrunken cluster precisely while capacity is gone.
func (q QueueCap) Admit(sig []EngineSignal, _ *workload.Request, _ time.Duration) bool {
	for _, s := range sig {
		if s.Down {
			continue
		}
		if s.Outstanding < q.Cap {
			return true
		}
	}
	return false
}

// SLOShed sheds a request predicted to miss its SLO on every engine even
// if served immediately after the engine's current backlog: the
// predicted-infeasible front door. The prediction combines the signal's
// backlog drain time with the request's estimated isolated latency,
// scaled to each engine's speed — so a fast engine can save a request a
// slow one would doom. Like every dispatch-layer estimate it is built on
// profiling means over stale signals; it trades a few salvageable
// requests for not burning accelerator time on hopeless ones.
type SLOShed struct {
	// Iso estimates a request's isolated latency in reference-hardware
	// units (see RequestIsolated).
	Iso func(*workload.Request) time.Duration
	// Load is the per-task remaining-work estimate backing the Backlog
	// signal when the dispatcher provides none (e.g. behind round-robin
	// or JSQ): without it the board would leave Backlog at zero and the
	// shed would silently see every queue as empty. Typically the same
	// estimator the load dispatcher would use (SparsityAwareLoad).
	Load func(*sched.Task) time.Duration
	// Curve is Load's optional curve form (see SparsityAwareCurve),
	// consulted when this policy is the run's load provider.
	Curve func(*sched.Task) []time.Duration
}

// Name implements Admission.
func (SLOShed) Name() string { return "slo" }

// LoadFunc exposes the backlog estimate to the SignalBoard
// (loadProvider); the dispatcher's own estimate, if any, takes
// precedence so routing and admission share one metrics pipeline.
func (a SLOShed) LoadFunc() func(*sched.Task) time.Duration { return a.Load }

// CurveFunc exposes the estimate's curve form (curveProvider).
func (a SLOShed) CurveFunc() func(*sched.Task) []time.Duration { return a.Curve }

// Admit implements Admission. Down engines can't save anyone: their
// snapshots are excluded from the feasibility scan (same rationale as
// QueueCap — a dead engine's empty queue predicts a completion that
// will never happen).
func (a SLOShed) Admit(sig []EngineSignal, r *workload.Request, now time.Duration) bool {
	iso := a.Iso(r)
	for _, s := range sig {
		if s.Down {
			continue
		}
		scale := s.LatencyScale
		if scale <= 0 {
			scale = 1
		}
		service := time.Duration(float64(iso) * scale)
		if now+s.DrainTime()+service <= r.Deadline() {
			return true
		}
	}
	return false
}

// RequestIsolated estimates an arriving request's isolated latency in
// reference-hardware units, before it becomes a Task: the Dysta LUT entry
// for the model-pattern pair when profiled, else the pattern-blind
// per-model merge, else the profiling population's mean isolated latency
// — the same fallback chain the load estimators use, so admission and
// dispatch never disagree about what a request costs.
func RequestIsolated(lut *trace.StatsSet, est *sched.Estimator) func(*workload.Request) time.Duration {
	return func(r *workload.Request) time.Duration {
		k := r.Key()
		if st := lut.Lookup(k); st != nil {
			return st.AvgTotal
		}
		if st := est.ModelStats(k.Model()); st != nil {
			return st.AvgTotal
		}
		return est.MeanIsolated()
	}
}
