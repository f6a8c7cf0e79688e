package cluster

import (
	"fmt"
	"time"

	"sparsedysta/internal/sched"
)

// This file is the SLO-driven autoscaler: a policy that scales the live
// engine set between Min and Max by actuating the Drain/Join lifecycle
// transitions the churn subsystem already owns. The design keeps the
// staleness discipline the rest of the dispatch layer lives under:
//
//   - The policy is EVALUATED only at signal-refresh instants, reading
//     the same (stale) SignalBoard snapshots dispatchers read — never
//     live engine state. An autoscaler with a 100ms signal interval is
//     exactly as blind as its router.
//   - ACTUATION goes through the fault injector's Drain/Join
//     transitions, so a scaled-down engine finishes its queue gracefully
//     and a scaled-up one re-enters the rotation through the same
//     liveness signals a recovered engine does. The action itself
//     propagates to dispatch with signal staleness: the arrival that
//     triggered a scale-down may still be routed to the drained engine
//     and bounce off it as a redirect, exactly like a churn corpse.
//   - HYSTERESIS — a cooldown between actions plus a guard band between
//     the scale-up and scale-down thresholds — prevents flapping, and
//     one action per evaluation bounds the scaling rate to one engine
//     per refresh.
//
// A nil Config.Autoscale disables all of this bit-identically: the run
// never creates a scaler, and without a churn plan never creates the
// injector either.

// Autoscaler is the SLO-driven engine-count policy. The decision signal
// is the mean predicted drain time across live engines — each engine's
// capacity-normalized backlog under the run's load estimator, i.e. the
// queueing delay a new arrival is predicted to face — plus the fraction
// of live engines that are idle. High predicted delay means SLOs are
// about to be violated (scale up); low delay with mostly-idle engines
// means capacity is being wasted (scale down).
type Autoscaler struct {
	// Min and Max bound the live engine count. Min >= 1; Max must not
	// exceed the cluster size. The run starts with Min engines live;
	// the slots above them start drained and join as load demands.
	Min, Max int
	// Up scales up one engine when the mean live predicted drain time
	// exceeds it. Typically a fraction of the workload's SLO budget.
	Up time.Duration
	// Down scales down one engine when the mean live predicted drain
	// time is below it AND at least scaleDownIdleFrac of the live
	// engines are idle. Must leave a guard band: Down <= Up.
	Down time.Duration
	// Cooldown is the minimum virtual time between consecutive actions.
	Cooldown time.Duration
	// Load is the per-task remaining-work estimate backing the Backlog
	// signal the policy reads. Without it (and without a load-providing
	// dispatcher) backlogs are always zero and the policy can only ever
	// scale down.
	Load func(*sched.Task) time.Duration
	// Curve is Load's optional curve form (see SparsityAwareCurve),
	// consulted when this policy is the run's load provider.
	Curve func(*sched.Task) []time.Duration
}

// LoadFunc exposes the estimate to the SignalBoard (loadProvider): an
// autoscaler needs the Backlog signal maintained even when the
// dispatcher is load-blind (e.g. round-robin).
func (a *Autoscaler) LoadFunc() func(*sched.Task) time.Duration { return a.Load }

// CurveFunc exposes the estimate's curve form (curveProvider).
func (a *Autoscaler) CurveFunc() func(*sched.Task) []time.Duration { return a.Curve }

// scaleDownIdleFrac is the fraction of live engines that must be idle
// (Outstanding == 0 in the snapshot) before the autoscaler scales down.
const scaleDownIdleFrac = 0.5

// validate checks the policy against the cluster size.
func (a *Autoscaler) validate(engines int) error {
	if a.Min < 1 {
		return fmt.Errorf("cluster: autoscaler Min %d < 1", a.Min)
	}
	if a.Max < a.Min {
		return fmt.Errorf("cluster: autoscaler Max %d < Min %d", a.Max, a.Min)
	}
	if a.Max > engines {
		return fmt.Errorf("cluster: autoscaler Max %d exceeds %d engines", a.Max, engines)
	}
	if a.Up <= 0 {
		return fmt.Errorf("cluster: autoscaler Up threshold %v not positive", a.Up)
	}
	if a.Down < 0 || a.Down > a.Up {
		return fmt.Errorf("cluster: autoscaler thresholds inverted (Down %v, Up %v)", a.Down, a.Up)
	}
	if a.Cooldown < 0 {
		return fmt.Errorf("cluster: autoscaler negative cooldown %v", a.Cooldown)
	}
	return nil
}

// scaler is the per-run runtime of an Autoscaler: which slots it has
// parked, when it last acted, and which board refresh it last evaluated.
type scaler struct {
	pol *Autoscaler
	fi  *faultInjector
	// parked marks slots this scaler drained (as opposed to churn
	// victims, which the policy never resurrects — recovery is the churn
	// plan's business).
	parked []bool
	// seen is the board refresh count already evaluated.
	seen       int
	lastAction time.Duration
	acted      bool
	ups, downs int
}

// newScaler arms the policy: slots beyond the first Min are drained at
// t=0, before any arrival, so the run starts with Min engines in
// rotation.
func newScaler(pol *Autoscaler, fi *faultInjector) (*scaler, error) {
	n := len(fi.engines)
	s := &scaler{pol: pol, fi: fi, parked: make([]bool, n)}
	for i := pol.Min; i < n; i++ {
		if err := fi.drainNow(i, 0); err != nil {
			return nil, err
		}
		s.parked[i] = true
	}
	return s, nil
}

// evaluate runs the policy once against the just-refreshed signals. At
// most one action fires per evaluation, gated by the cooldown. Scale-up
// joins the lowest-index parked slot; scale-down drains the
// highest-index live one — a deterministic order that keeps slot 0
// always on and makes the parked set a contiguous suffix in the common
// case. It reports whether an action fired; an evaluation that took
// none changed no engine.
func (s *scaler) evaluate(sig []EngineSignal, now time.Duration) (bool, error) {
	// Reconcile with churn first: a parked slot the plan failed and then
	// recovered is back in rotation without the scaler's involvement.
	for i := range s.parked {
		if s.parked[i] && s.fi.state[i] != stateDraining {
			s.parked[i] = false
		}
	}
	if s.acted && now-s.lastAction < s.pol.Cooldown {
		return false, nil
	}
	live, idle := 0, 0
	var backlog float64
	for _, g := range sig {
		if g.Down {
			continue
		}
		live++
		if g.Outstanding == 0 {
			idle++
		}
		backlog += float64(g.DrainTime())
	}
	if live == 0 {
		// The whole cluster is down (churn); there is nothing to drain
		// and joining is the recovery plan's business.
		return false, nil
	}
	meanDrain := time.Duration(backlog / float64(live))
	if meanDrain > s.pol.Up && live < s.pol.Max {
		for i := range s.parked {
			if s.parked[i] && s.fi.state[i] == stateDraining {
				if err := s.fi.joinNow(i, now); err != nil {
					return false, err
				}
				s.parked[i] = false
				s.ups++
				s.acted, s.lastAction = true, now
				return true, nil
			}
		}
		return false, nil // every parked slot was failed by churn; nothing to add
	}
	if meanDrain < s.pol.Down && live > s.pol.Min && float64(idle) >= scaleDownIdleFrac*float64(live) {
		for i := len(s.parked) - 1; i >= 0; i-- {
			if !s.parked[i] && s.fi.state[i] == stateHealthy {
				if err := s.fi.drainNow(i, now); err != nil {
					return false, err
				}
				s.parked[i] = true
				s.downs++
				s.acted, s.lastAction = true, now
				return true, nil
			}
		}
	}
	return false, nil
}
