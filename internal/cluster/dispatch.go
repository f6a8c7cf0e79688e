package cluster

import (
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// Dispatcher routes an arriving request to one of the cluster's engines.
// Pick is called once per admitted request, in arrival order, with the
// SignalBoard's per-engine signals — snapshots that may be stale by up to
// the run's SignalInterval (exact when the interval is 0). Implementations
// must be deterministic: same signals, same request, same answer. The
// returned index selects engines[i]; an out-of-range index fails the run.
type Dispatcher interface {
	// Name identifies the policy in results.
	Name() string
	// Pick selects the engine for the request arriving at now.
	Pick(sig []EngineSignal, r *workload.Request, now time.Duration) int
}

// loadProvider is implemented by dispatchers (and admission policies)
// that need the SignalBoard to maintain a Backlog signal: the board is
// built with the first load function the run's policies provide.
type loadProvider interface {
	LoadFunc() func(*sched.Task) time.Duration
}

// curveProvider is the optional companion of loadProvider: a policy that
// can also serve its estimate as a per-task remaining curve
// (sched.Options.BacklogCurve) lets the engines' incremental backlog
// accounting re-estimate after each executed layer by slice index
// instead of a LUT lookup. The run takes the curve from the same policy
// its load estimate came from, so the two can never disagree about what
// a request costs; a provider without one (or returning nil) leaves the
// engines on per-event estimator calls — same numbers, more work.
type curveProvider interface {
	CurveFunc() func(*sched.Task) []time.Duration
}

// resettable is implemented by stateful dispatchers; cluster.Run resets
// them at the start of every run so an instance reused across runs cannot
// leak state between them.
type resettable interface {
	Reset()
}

// RoundRobin cycles through engines in index order, ignoring load: the
// baseline dispatch every serving stack starts with.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin dispatcher starting at engine 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Dispatcher.
func (*RoundRobin) Name() string { return "rr" }

// Reset restarts the rotation at engine 0 (called by cluster.Run, so a
// dispatcher instance reused across two runs starts both identically).
func (d *RoundRobin) Reset() { d.next = 0 }

// Pick implements Dispatcher. The counter wraps inside [0, len(sig)), so
// it can neither overflow nor go out of range when the engine count
// changes between runs. Engines marked Down are skipped deterministically:
// the rotation advances from the cursor to the first in-service engine
// and resumes after it, so the relative order among live engines is
// preserved and a recovered engine slips back into its slot. With every
// engine marked down (or none marked at all) the cursor's own pick
// stands — on a fully healthy cluster this is exactly the pre-liveness
// rotation, and on a fully dead one the cluster layer, not the
// dispatcher, decides the request's fate.
func (d *RoundRobin) Pick(sig []EngineSignal, _ *workload.Request, _ time.Duration) int {
	if d.next >= len(sig) {
		d.next = 0
	}
	for k := 0; k < len(sig); k++ {
		i := (d.next + k) % len(sig)
		if sig[i].Down {
			continue
		}
		d.next = (i + 1) % len(sig)
		return i
	}
	i := d.next
	d.next = (d.next + 1) % len(sig)
	return i
}

// JSQ is Join-the-Shortest-Queue: the engine with the fewest outstanding
// requests, capacity-normalized (a queue of n on a half-speed engine
// counts like 2n on a reference one), ties to the lowest index. Load-aware
// but size-blind — a queue of three MobileNets counts the same as a queue
// of three BERTs.
type JSQ struct{}

// NewJSQ returns the join-the-shortest-queue dispatcher.
func NewJSQ() *JSQ { return &JSQ{} }

// Name implements Dispatcher.
func (*JSQ) Name() string { return "jsq" }

// Pick implements Dispatcher. Down engines are excluded from the
// min-scan (ties still break to the lowest in-service index); with every
// engine down the scan falls back to ignoring liveness, leaving the
// all-dead case to the cluster layer.
func (*JSQ) Pick(sig []EngineSignal, _ *workload.Request, _ time.Duration) int {
	best := -1
	var bestLen float64
	for i := range sig {
		if sig[i].Down {
			continue
		}
		if n := sig[i].NormOutstanding(); best < 0 || n < bestLen {
			best, bestLen = i, n
		}
	}
	if best < 0 {
		best, bestLen = 0, sig[0].NormOutstanding()
		for i := 1; i < len(sig); i++ {
			if n := sig[i].NormOutstanding(); n < bestLen {
				best, bestLen = i, n
			}
		}
	}
	return best
}

// LeastLoad routes to the engine with the smallest predicted outstanding
// work: the sum of a per-task remaining-latency estimate over every
// queued request, capacity-normalized to the engine's drain time. With a
// sparsity-aware estimate (SparsityAwareLoad) this is the dispatch-layer
// analogue of Dysta's scheduling insight — the same architecture differs
// up to ~40% in effective work across sparsity patterns (paper Fig. 4),
// so queue length alone misjudges backlog.
type LeastLoad struct {
	name  string
	load  func(*sched.Task) time.Duration
	curve func(*sched.Task) []time.Duration
}

// NewLeastLoad returns a least-predicted-load dispatcher using the given
// per-task remaining-work estimate.
func NewLeastLoad(name string, load func(*sched.Task) time.Duration) *LeastLoad {
	return &LeastLoad{name: name, load: load}
}

// WithCurve attaches the curve form of the dispatcher's estimate
// (typically SparsityAwareCurve beside SparsityAwareLoad) and returns the
// dispatcher for chaining: the engines then maintain their incremental
// backlog sums by slice index. The curve must agree with the load
// estimate; the engines verify the pair at every injection.
func (d *LeastLoad) WithCurve(curve func(*sched.Task) []time.Duration) *LeastLoad {
	d.curve = curve
	return d
}

// Name implements Dispatcher.
func (d *LeastLoad) Name() string { return d.name }

// LoadFunc exposes the estimate to the SignalBoard (loadProvider).
func (d *LeastLoad) LoadFunc() func(*sched.Task) time.Duration { return d.load }

// CurveFunc exposes the estimate's curve form (curveProvider).
func (d *LeastLoad) CurveFunc() func(*sched.Task) []time.Duration { return d.curve }

// Pick implements Dispatcher. Down engines are excluded exactly as in
// JSQ.Pick: out of the min-scan, lowest in-service index on ties, full
// scan as the all-dead fallback.
func (d *LeastLoad) Pick(sig []EngineSignal, _ *workload.Request, _ time.Duration) int {
	best := -1
	var bestLoad float64
	for i := range sig {
		if sig[i].Down {
			continue
		}
		if w := sig[i].NormBacklog(); best < 0 || w < bestLoad {
			best, bestLoad = i, w
		}
	}
	if best < 0 {
		best, bestLoad = 0, sig[0].NormBacklog()
		for i := 1; i < len(sig); i++ {
			if w := sig[i].NormBacklog(); w < bestLoad {
				best, bestLoad = i, w
			}
		}
	}
	return best
}

// BlindLoad estimates a task's remaining work from the pattern-blind
// profiling Estimator — the load signal a sparsity-unaware serving stack
// has available. Tasks whose model was never profiled fall back to the
// profiling population's mean isolated latency rather than panicking (the
// scheduler-facing Estimator accessors run only after workload
// validation; a router sees whatever traffic shows up).
func BlindLoad(est *sched.Estimator) func(*sched.Task) time.Duration {
	return func(t *sched.Task) time.Duration {
		if st := est.ModelStats(t.Key.Model()); st != nil {
			return st.AvgRemaining(t.NextLayer)
		}
		return est.MeanIsolated()
	}
}

// SparsityAwareLoad estimates a task's remaining work from the Dysta LUT,
// keyed by the model-pattern pair (paper §5.1): the static-sparsity-aware
// estimate the hardware profiling stage provides. A key the LUT never
// profiled falls back to the pattern-blind estimate — never to zero: a
// zero estimate would make LeastLoad treat exactly the unprofiled traffic
// a production router must handle as free work and dump all of it onto
// one engine.
func SparsityAwareLoad(lut *trace.StatsSet, est *sched.Estimator) func(*sched.Task) time.Duration {
	blind := BlindLoad(est)
	return func(t *sched.Task) time.Duration {
		if st := lut.Lookup(t.Key); st != nil {
			return st.AvgRemaining(t.NextLayer)
		}
		return blind(t)
	}
}

// BlindCurve is the curve form of BlindLoad: the per-model remaining
// curve for profiled models, nil for unprofiled ones. The nil branch is
// exact, not a compromise — BlindLoad's MeanIsolated fallback is
// constant in NextLayer, so the engine's per-event estimator calls
// return the same value a curve would, just without the slice-index
// shortcut.
func BlindCurve(est *sched.Estimator) func(*sched.Task) []time.Duration {
	return func(t *sched.Task) []time.Duration {
		if st := est.ModelStats(t.Key.Model()); st != nil {
			return st.RemainingCurve()
		}
		return nil
	}
}

// SparsityAwareCurve is the curve form of SparsityAwareLoad: the Dysta
// LUT's per-pattern remaining curve, falling back to the pattern-blind
// per-model curve, falling back to nil (per-event estimator calls) for
// traffic the profiling never saw — the same chain, resolved once per
// injection instead of once per event.
func SparsityAwareCurve(lut *trace.StatsSet, est *sched.Estimator) func(*sched.Task) []time.Duration {
	blind := BlindCurve(est)
	return func(t *sched.Task) []time.Duration {
		if st := lut.Lookup(t.Key); st != nil {
			return st.RemainingCurve()
		}
		return blind(t)
	}
}
