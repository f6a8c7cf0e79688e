package exp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// DispatchPolicies lists the cluster dispatch policy names accepted by
// Options.Dispatch (and the CLIs' -dispatch flag), in presentation order.
var DispatchPolicies = []string{"rr", "jsq", "load", "blind-load"}

// NewDispatcher builds a fresh dispatcher for the named policy, wired to
// the pipeline's profiling artefacts (the sparsity-aware policy reads the
// Dysta LUT with a pattern-blind fallback; the blind one the
// pattern-merged Estimator). Dispatchers are stateful, so every
// simulation cell gets its own instance.
func NewDispatcher(name string, p *Pipeline) (cluster.Dispatcher, error) {
	switch name {
	case "", "rr":
		return cluster.NewRoundRobin(), nil
	case "jsq":
		return cluster.NewJSQ(), nil
	case "load":
		return cluster.NewLeastLoad("load", cluster.SparsityAwareLoad(p.LUT, p.Est)).
			WithCurve(cluster.SparsityAwareCurve(p.LUT, p.Est)), nil
	case "blind-load":
		return cluster.NewLeastLoad("blind-load", cluster.BlindLoad(p.Est)).
			WithCurve(cluster.BlindCurve(p.Est)), nil
	}
	return nil, fmt.Errorf("exp: unknown dispatch policy %q (valid: %v)", name, DispatchPolicies)
}

// AdmissionPolicies lists the admission policy names accepted by
// Options.Admission (and the CLIs' -admission flag).
var AdmissionPolicies = []string{"none", "queue-cap[:N]", "slo"}

// NewAdmission builds the named admission policy. "" and "none" admit
// everything; "queue-cap" sheds when every engine already holds the cap
// (default 16, override with "queue-cap:N"); "slo" sheds requests
// predicted to miss their SLO on every engine, using the same
// sparsity-aware-with-fallback estimate the load dispatcher uses.
func NewAdmission(name string, p *Pipeline) (cluster.Admission, error) {
	switch {
	case name == "" || name == "none":
		return cluster.AdmitAll{}, nil
	case name == "queue-cap":
		return cluster.QueueCap{Cap: 16}, nil
	case strings.HasPrefix(name, "queue-cap:"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "queue-cap:"))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("exp: bad queue-cap bound in %q (want queue-cap:N, N >= 1)", name)
		}
		return cluster.QueueCap{Cap: n}, nil
	case name == "slo":
		return cluster.SLOShed{
			Iso:   cluster.RequestIsolated(p.LUT, p.Est),
			Load:  cluster.SparsityAwareLoad(p.LUT, p.Est),
			Curve: cluster.SparsityAwareCurve(p.LUT, p.Est),
		}, nil
	}
	return nil, fmt.Errorf("exp: unknown admission policy %q (valid: %v)", name, AdmissionPolicies)
}

// RebalancePolicies lists the migration policy names accepted by
// Options.Rebalance (and the CLIs' -rebalance flag).
var RebalancePolicies = []string{"none", "steal", "shed"}

// NewRebalancer builds the named migration policy, wired to the
// pipeline's sparsity-aware load estimate (the same LUT-with-fallback
// chain the load dispatcher and SLO admission use, so routing, admission
// and rebalancing never disagree about what a request costs). "" and
// "none" return the inert policy.
func NewRebalancer(name string, p *Pipeline) (cluster.RebalancePolicy, error) {
	switch name {
	case "", "none":
		return cluster.NoRebalance{}, nil
	case "steal":
		return cluster.Steal{
			Load:  cluster.SparsityAwareLoad(p.LUT, p.Est),
			Curve: cluster.SparsityAwareCurve(p.LUT, p.Est),
		}, nil
	case "shed":
		return cluster.Shed{
			Load:  cluster.SparsityAwareLoad(p.LUT, p.Est),
			Curve: cluster.SparsityAwareCurve(p.LUT, p.Est),
		}, nil
	}
	return nil, fmt.Errorf("exp: unknown rebalance policy %q (valid: %v)", name, RebalancePolicies)
}

// ParseEngines parses the CLI engine syntax: either a plain count ("4",
// a homogeneous reference-speed cluster, returned with nil specs) or a
// comma-separated list of "NxS" terms where N engines get latency scale S
// ("2x1,2x2" = two reference-speed plus two half-speed engines; a term
// without x means scale 1). It returns the total engine count and the
// per-engine specs (nil for the homogeneous plain-count form).
func ParseEngines(s string) (int, []cluster.EngineSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n < 1 {
			return 0, nil, fmt.Errorf("exp: -engines count %d < 1", n)
		}
		return n, nil, nil
	}
	var specs []cluster.EngineSpec
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		countStr, scaleStr, hasScale := strings.Cut(term, "x")
		count, err := strconv.Atoi(countStr)
		if err != nil || count < 1 {
			return 0, nil, fmt.Errorf("exp: bad -engines term %q in %q (want N or NxSCALE)", term, s)
		}
		scale := 1.0
		if hasScale {
			scale, err = strconv.ParseFloat(scaleStr, 64)
			// ParseFloat accepts "NaN" and "Inf" without error.
			if err != nil || scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
				return 0, nil, fmt.Errorf("exp: bad -engines latency scale in term %q of %q (want a finite scale > 0)", term, s)
			}
		}
		for i := 0; i < count; i++ {
			specs = append(specs, cluster.EngineSpec{LatencyScale: scale})
		}
	}
	return len(specs), specs, nil
}

// EngineCounts is the scale-engines sweep grid.
var EngineCounts = []int{1, 2, 4, 8}

// SignalIntervals is the stale-signals sweep grid: the staleness bound of
// the dispatcher's view of engine state, from the idealized exact-state
// router (0) up to a refresh interval spanning many mean service times.
var SignalIntervals = []time.Duration{
	0,
	1 * time.Millisecond,
	5 * time.Millisecond,
	20 * time.Millisecond,
	100 * time.Millisecond,
}

// StaleSignals is the delayed-load-signal experiment: a 4-engine cluster
// running Dysta on the AttNN workload at the saturation knee, sweeping the
// SignalBoard refresh interval against the dispatch policy. The question a
// real deployment asks: how fresh must the router's metrics pipeline be
// for load-aware (and sparsity-aware) dispatch to keep its edge over
// round-robin? With stale snapshots every state-aware policy sends whole
// bursts to whichever engine looked emptiest at the last refresh —
// concentrating work exactly like the queue-blind baseline, just with
// extra steps — so the violation-rate curves of jsq and load converge
// toward (and can cross above) the interval-invariant rr line.
func StaleSignals(opts Options) ([]Artifact, error) {
	const engines = 4
	const ratePerEngine = 33.0 // just past the single-engine knee (Fig. 15)
	policies := []string{"rr", "jsq", "load"}

	p, err := NewPipeline(workload.MultiAttNN(), opts, 7)
	if err != nil {
		return nil, err
	}
	dysta := dystaOnly()

	tbl := &Table{
		ID: "stale-signals",
		Title: fmt.Sprintf("Dysta on %d engines at %.0f req/s per engine: dispatch under stale load signals",
			engines, ratePerEngine),
		Columns: []string{"dispatch", "signal interval", "viol%", "ANTT", "throughput (inf/s)"},
		Notes: []string{
			"signal interval = staleness bound of the dispatcher's engine-state snapshots (0 = exact state)",
			"rr ignores load signals, so its row is the interval-invariant baseline the stale policies degrade toward",
		},
	}
	xs := make([]float64, len(SignalIntervals))
	for i, iv := range SignalIntervals {
		xs[i] = float64(iv) / float64(time.Millisecond)
	}
	viol := &Series{
		ID:     "stale-signals",
		Title:  "SLO violation rate vs signal staleness",
		XLabel: "signal interval (ms)",
		YLabel: "SLO violation rate (%)",
		X:      xs,
		Lines:  map[string][]float64{},
		Order:  policies,
	}

	for _, policy := range policies {
		for _, interval := range SignalIntervals {
			o := opts
			o.Engines = engines
			o.EngineSpecs = nil // the sweep pins its composition
			o.Dispatch = policy
			o.SignalInterval = interval
			rs, err := p.RunPoint(dysta, ratePerEngine*engines, 10, o)
			if err != nil {
				return nil, err
			}
			r := rs["Dysta"]
			tbl.Rows = append(tbl.Rows, []string{
				policy, interval.String(),
				fmt.Sprintf("%.1f", 100*r.ViolationRate),
				fmt.Sprintf("%.2f", r.ANTT),
				fmt.Sprintf("%.1f", r.Throughput),
			})
			viol.Lines[policy] = append(viol.Lines[policy], 100*r.ViolationRate)
		}
	}
	return []Artifact{tbl, viol}, nil
}

// HeteroMixes is the hetero-scale sweep grid: cluster compositions in the
// CLI -engines syntax, all with the same total capacity (sum of 1/scale =
// 4 reference engines' worth), so differences between rows are purely
// about how the dispatcher copes with the composition, not about how much
// hardware it has.
var HeteroMixes = []struct {
	Name string
	Spec string
}{
	{"uniform", "4x1"},
	{"fast-pair", "2x0.5"},
	{"slow-octet", "8x2"},
	{"mixed", "1x0.5,1x1,2x2"},
}

// HeteroScale is the heterogeneous-cluster experiment: Dysta on the AttNN
// workload at a rate saturating four reference engines, across cluster
// compositions of identical total capacity but different engine speeds.
// Round-robin ignores capacity entirely (a half-speed engine receives the
// same share as a double-speed one, so mixed clusters drown their slow
// members); capacity-normalized jsq and predicted-load weigh each queue
// by the engine's latency scale and keep fast engines fed. The policy
// ordering rr > jsq > load in violation rate should therefore widen as
// the composition gets more lopsided.
func HeteroScale(opts Options) ([]Artifact, error) {
	const capacity = 4.0 // reference-engine equivalents per mix
	const ratePerCapacity = 33.0
	policies := []string{"rr", "jsq", "load"}

	p, err := NewPipeline(workload.MultiAttNN(), opts, 7)
	if err != nil {
		return nil, err
	}
	dysta := dystaOnly()

	tbl := &Table{
		ID: "hetero-scale",
		Title: fmt.Sprintf("Dysta on capacity-%d heterogeneous clusters at %.0f req/s: dispatch vs composition",
			int(capacity), ratePerCapacity*capacity),
		Columns: []string{"mix", "engines", "dispatch", "viol%", "ANTT", "throughput (inf/s)"},
		Notes: []string{
			"every mix has the same total capacity (sum of engine speeds = 4 reference engines)",
			"engines syntax: NxS = N engines at latency scale S (2 = half speed, 0.5 = double speed)",
		},
	}
	xs := make([]float64, len(HeteroMixes))
	for i := range HeteroMixes {
		xs[i] = float64(i)
	}
	viol := &Series{
		ID:     "hetero-scale",
		Title:  "SLO violation rate vs cluster composition (x = mix index, see table)",
		XLabel: "mix index",
		YLabel: "SLO violation rate (%)",
		X:      xs,
		Lines:  map[string][]float64{},
		Order:  policies,
	}

	for _, mix := range HeteroMixes {
		_, specs, err := ParseEngines(mix.Spec)
		if err != nil {
			return nil, err
		}
		for _, policy := range policies {
			o := opts
			o.Engines = 0
			o.EngineSpecs = specs // the sweep pins its composition
			o.Dispatch = policy
			rs, err := p.RunPoint(dysta, ratePerCapacity*capacity, 10, o)
			if err != nil {
				return nil, err
			}
			r := rs["Dysta"]
			tbl.Rows = append(tbl.Rows, []string{
				mix.Name, mix.Spec, policy,
				fmt.Sprintf("%.1f", 100*r.ViolationRate),
				fmt.Sprintf("%.2f", r.ANTT),
				fmt.Sprintf("%.1f", r.Throughput),
			})
			viol.Lines[policy] = append(viol.Lines[policy], 100*r.ViolationRate)
		}
	}
	return []Artifact{tbl, viol}, nil
}

// dystaOnly returns the Dysta spec alone: the cluster sweeps vary the
// dispatch layer, not the per-engine scheduler, so one scheduler keeps
// the grids affordable.
func dystaOnly() []SchedSpec {
	for _, s := range StandardScheds() {
		if s.Name == "Dysta" {
			return []SchedSpec{s}
		}
	}
	panic("exp: Dysta missing from the standard lineup")
}

// ScaleEngines is the multi-accelerator scaling experiment: the full
// scheduler lineup on the AttNN workload across engine counts and
// dispatch policies, at an arrival rate pinned to the saturation knee of
// one engine (just above the ~30 req/s capacity the Fig. 15 sweep
// locates, scaled with the engine count so per-engine pressure stays
// constant). The knee is where dispatch quality matters most: transient
// imbalance leaves one engine idle while another queues, which round-robin
// cannot see, queue length partially sees, and predicted load sees best.
// The experiment answers the two questions a sharded deployment asks:
// does throughput scale with engines, and how much does load-aware (and
// sparsity-aware) dispatch buy over round-robin at saturating load.
func ScaleEngines(opts Options) ([]Artifact, error) {
	const ratePerEngine = 33.0 // just past the single-engine knee (Fig. 15)
	policies := []string{"rr", "jsq", "load"}

	p, err := NewPipeline(workload.MultiAttNN(), opts, 7)
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:    "scale-engines",
		Title: fmt.Sprintf("multi-attnn at %.0f req/s per engine: scaling vs engine count and dispatch", ratePerEngine),
		Columns: []string{"dispatch", "engines", "scheduler",
			"viol%", "ANTT", "throughput (inf/s)"},
		Notes: []string{
			"arrival rate scales with the engine count, so per-engine pressure is constant",
			"dispatch policies: rr = round-robin, jsq = join-shortest-queue, load = sparsity-aware least-predicted-load (Dysta LUT)",
		},
	}
	specs := StandardScheds()
	xs := make([]float64, len(EngineCounts))
	for i, n := range EngineCounts {
		xs[i] = float64(n)
	}
	mkSeries := func(ylabel string) *Series {
		return &Series{
			ID:     "scale-engines",
			Title:  "Dysta under each dispatch policy",
			XLabel: "engines",
			YLabel: ylabel,
			X:      xs,
			Lines:  map[string][]float64{},
			Order:  policies,
		}
	}
	viol, stp := mkSeries("SLO violation rate (%)"), mkSeries("throughput (inf/s)")

	// A 1-engine run has nothing to dispatch, so its results are policy-
	// independent: run that column once, emit it under a "-" dispatch
	// label, and share its value as every policy's series anchor.
	var single map[string]sched.Result
	runCount := func(policy string, engines int) (map[string]sched.Result, error) {
		if engines == 1 && single != nil {
			return single, nil
		}
		o := opts
		o.Engines = engines
		o.EngineSpecs = nil // the sweep pins its composition
		o.Dispatch = policy
		grid, err := p.RunGrid(specs, []Point{{Rate: ratePerEngine * float64(engines), MSLO: 10}}, o)
		if err != nil {
			return nil, err
		}
		if engines == 1 {
			single = grid[0].Results
		}
		return grid[0].Results, nil
	}
	addRows := func(policy string, engines int, rs map[string]sched.Result) {
		label := policy
		if engines == 1 {
			label = "-"
		}
		for _, spec := range specs {
			r := rs[spec.Name]
			tbl.Rows = append(tbl.Rows, []string{
				label, fmt.Sprintf("%d", engines), spec.Name,
				fmt.Sprintf("%.1f", 100*r.ViolationRate),
				fmt.Sprintf("%.2f", r.ANTT),
				fmt.Sprintf("%.1f", r.Throughput),
			})
		}
	}

	for pi, policy := range policies {
		for _, engines := range EngineCounts {
			rs, err := runCount(policy, engines)
			if err != nil {
				return nil, err
			}
			if engines != 1 || pi == 0 {
				addRows(policy, engines, rs)
			}
			r := rs["Dysta"]
			viol.Lines[policy] = append(viol.Lines[policy], 100*r.ViolationRate)
			stp.Lines[policy] = append(stp.Lines[policy], r.Throughput)
		}
	}
	return []Artifact{tbl, stp, viol}, nil
}
