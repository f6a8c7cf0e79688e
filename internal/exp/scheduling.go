package exp

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// paperTable5 records the paper's reported Table 5 values for side-by-side
// shape comparison: {ANTT, violation %} per scheduler per workload.
var paperTable5 = map[string]map[string][2]float64{
	"multi-attnn": {
		"FCFS": {18.9, 55.1}, "SJF": {5.0, 15.2}, "SDRM3": {18.9, 63.3},
		"PREMA": {5.4, 15.3}, "Planaria": {16.0, 6.8}, "Dysta": {4.7, 5.1},
	},
	"multi-cnn": {
		"FCFS": {11.4, 23.1}, "SJF": {2.6, 3.4}, "SDRM3": {9.3, 33.7},
		"PREMA": {3.0, 3.2}, "Planaria": {4.2, 2.1}, "Dysta": {2.5, 2.0},
	},
}

// table5Order is Table 5's lineup, StandardScheds' names in the paper's
// row order; Dysta is last, after its five baselines.
var table5Order = specNames(StandardScheds())

// table5Setups are Table 5's workloads at their default operating
// points.
var table5Setups = []struct {
	sc   func() workload.Scenario
	rate float64
}{
	{workload.MultiAttNN, 30},
	{workload.MultiCNN, 3},
}

// table5Grids runs Table 5's cells once: per workload, in table5Setups
// order, a grid of the lineup at the workload's operating point. The
// means, the seed-spread notes and the paired notes all read them.
func table5Grids(opts Options) ([]grid, error) {
	grids := make([]grid, len(table5Setups))
	for i, setup := range table5Setups {
		p, err := NewPipeline(setup.sc(), opts, 7)
		if err != nil {
			return nil, err
		}
		if grids[i], err = p.runGrid(StandardScheds(), []Point{{Rate: setup.rate, MSLO: 10}}, opts); err != nil {
			return nil, err
		}
	}
	return grids, nil
}

// Table5 reproduces the paper's headline comparison: ANTT and SLO
// violation rate for the six schedulers on both workloads at the default
// operating points (30 req/s AttNN, 3 req/s CNN, M_slo = 10x). Every
// scheduler runs on the same seeded arrival streams, so its seeds pair
// with Dysta's: the notes give Dysta's per-seed wins against each
// baseline, and how each column ranks the scheduler pairs against the
// paper's.
func Table5(opts Options) ([]Artifact, error) {
	grids, err := table5Grids(opts)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:    "table5",
		Title: "Comparison of scheduling approaches (measured vs paper)",
		Columns: []string{"scheduler",
			"attnn ANTT", "paper", "attnn viol%", "paper",
			"cnn ANTT", "paper", "cnn viol%", "paper"},
		Notes: []string{
			"absolute values differ from the paper (different substrate); compare ordering and factors",
		},
	}
	dysta := len(table5Order) - 1 // Dysta's spec index
	results := map[string]map[string]sched.Result{}
	for i, setup := range table5Setups {
		name := setup.sc().Name
		rs := grids[i].points[0].Results
		results[name] = rs
		seeds := grids[i].seedsOf(0, dysta)
		anttSD, violSD := sched.SeedSpread(seeds)
		tbl.Notes = append(tbl.Notes, fmt.Sprintf(
			"%s Dysta seed spread over %d seeds: ANTT ±%.2f, violations ±%.1f%%",
			name, opts.Seeds, anttSD, 100*violSD))
		for si, base := range table5Order[:dysta] {
			tbl.Notes = append(tbl.Notes, pairedNote(name, base, seeds, grids[i].seedsOf(0, si)))
		}
		for _, col := range []struct {
			name   string
			metric func(sched.Result) float64
			paper  int
		}{
			{"ANTT", func(r sched.Result) float64 { return r.ANTT }, 0},
			{"viol%", func(r sched.Result) float64 { return r.ViolationRate }, 1},
		} {
			measured := map[string]float64{}
			paper := map[string]float64{}
			for _, s := range table5Order {
				measured[s] = col.metric(rs[s])
				paper[s] = paperTable5[name][s][col.paper]
			}
			tbl.Notes = append(tbl.Notes, rankNote(name+" "+col.name, table5Order, measured, paper))
		}
	}
	for _, name := range table5Order {
		att := results["multi-attnn"][name]
		cnn := results["multi-cnn"][name]
		pAtt := paperTable5["multi-attnn"][name]
		pCnn := paperTable5["multi-cnn"][name]
		tbl.Rows = append(tbl.Rows, []string{
			name,
			fmt.Sprintf("%.1f", att.ANTT), fmt.Sprintf("%.1f", pAtt[0]),
			fmt.Sprintf("%.1f", 100*att.ViolationRate), fmt.Sprintf("%.1f", pAtt[1]),
			fmt.Sprintf("%.1f", cnn.ANTT), fmt.Sprintf("%.1f", pCnn[0]),
			fmt.Sprintf("%.1f", 100*cnn.ViolationRate), fmt.Sprintf("%.1f", pCnn[1]),
		})
	}
	return []Artifact{tbl}, nil
}

// pairedNote compares Dysta's per-seed results on one workload with a
// baseline's, seed by seed: how many seeds Dysta's ANTT is lower on, the
// range of the per-seed ANTT ratio Dysta/baseline, and on how many seeds
// Dysta's violation rate is lower, equal and higher.
func pairedNote(workload, base string, dysta, other []sched.Result) string {
	wins, violWins, violTies := 0, 0, 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range dysta {
		d, b := dysta[i], other[i]
		if d.ANTT < b.ANTT {
			wins++
		}
		r := d.ANTT / b.ANTT
		lo, hi = min(lo, r), max(hi, r)
		switch {
		case d.ViolationRate < b.ViolationRate:
			violWins++
		case d.ViolationRate == b.ViolationRate:
			violTies++
		}
	}
	return fmt.Sprintf("%s Dysta vs %s, paired by seed: ANTT lower on %d/%d seeds (ratio %.2f-%.2f); violation rate lower on %d, equal on %d, higher on %d",
		workload, base, wins, len(dysta), lo, hi, violWins, violTies, len(dysta)-violWins-violTies)
}

// rankNote counts the pairs of schedulers (in order's order) that one
// column ranks as the paper does: the measured values differ in the
// same direction as the paper's, or are equal where the paper's are. It
// lists the reversed pairs in their measured order, and the tied ones,
// equal here or in the paper but not in both.
func rankNote(column string, order []string, measured, paper map[string]float64) string {
	var reversed, tied []string
	pairs := 0
	for i, a := range order {
		for _, b := range order[i+1:] {
			pairs++
			m := cmp.Compare(measured[a], measured[b])
			switch pp := cmp.Compare(paper[a], paper[b]); {
			case m == pp:
			case m == -pp:
				lower, higher := a, b
				if m > 0 {
					lower, higher = b, a
				}
				reversed = append(reversed, lower+" < "+higher)
			default:
				tied = append(tied, a+"/"+b)
			}
		}
	}
	list := func(pairs []string) string {
		if len(pairs) == 0 {
			return "none"
		}
		return strings.Join(pairs, ", ")
	}
	return fmt.Sprintf("%s ranks %d of %d scheduler pairs as the paper does; reversed (measured order): %s; tied: %s",
		column, pairs-len(reversed)-len(tied), pairs, list(reversed), list(tied))
}

// Fig12 reproduces the ANTT vs violation-rate trade-off scatter of paper
// Fig. 12: each scheduler at two arrival rates per workload. Dysta should
// sit in the lower-left corner of every panel.
func Fig12(opts Options) ([]Artifact, error) {
	var arts []Artifact
	for _, setup := range []struct {
		sc    workload.Scenario
		rates []float64
	}{
		{workload.MultiAttNN(), AttNNRates},
		{workload.MultiCNN(), CNNRates},
	} {
		p, err := NewPipeline(setup.sc, opts, 7)
		if err != nil {
			return nil, err
		}
		grid, err := p.RunGrid(StandardScheds(), RatePoints(setup.rates, 10), opts)
		if err != nil {
			return nil, err
		}
		for _, pr := range grid {
			tbl := &Table{
				ID:      "fig12",
				Title:   fmt.Sprintf("%s at %.0f req/s: violation rate vs ANTT", setup.sc.Name, pr.Point.Rate),
				Columns: []string{"scheduler", "viol%", "ANTT"},
			}
			for _, spec := range StandardScheds() {
				r := pr.Results[spec.Name]
				tbl.Rows = append(tbl.Rows, []string{
					spec.Name,
					fmt.Sprintf("%.1f", 100*r.ViolationRate),
					fmt.Sprintf("%.2f", r.ANTT),
				})
			}
			arts = append(arts, tbl)
		}
	}
	return arts, nil
}

// Fig13 reproduces the optimization breakdown of paper Fig. 13: PREMA vs
// the Dysta-w/o-sparse ablation (static level only) vs full Dysta, on
// both workloads.
func Fig13(opts Options) ([]Artifact, error) {
	specs := []SchedSpec{
		{"PREMA", func(p *Pipeline) sched.Scheduler { return sched.NewPREMA(p.Est) }},
		{"Dysta-w/o-sparse", func(p *Pipeline) sched.Scheduler { return core.NewWithoutSparse(p.LUT) }},
		{"Dysta", func(p *Pipeline) sched.Scheduler { return core.NewDefault(p.LUT) }},
	}
	var arts []Artifact
	for _, setup := range []struct {
		sc   workload.Scenario
		rate float64
	}{
		{workload.MultiAttNN(), 30},
		{workload.MultiCNN(), 3},
	} {
		p, err := NewPipeline(setup.sc, opts, 7)
		if err != nil {
			return nil, err
		}
		rs, err := p.RunPoint(specs, setup.rate, 10, opts)
		if err != nil {
			return nil, err
		}
		tbl := &Table{
			ID:      "fig13",
			Title:   fmt.Sprintf("optimization breakdown, %s", setup.sc.Name),
			Columns: []string{"variant", "viol%", "ANTT"},
			Notes: []string{
				"static level (w/o-sparse) improves over PREMA; the dynamic sparse level adds the rest",
			},
		}
		for _, spec := range specs {
			r := rs[spec.Name]
			tbl.Rows = append(tbl.Rows, []string{
				spec.Name,
				fmt.Sprintf("%.1f", 100*r.ViolationRate),
				fmt.Sprintf("%.2f", r.ANTT),
			})
		}
		arts = append(arts, tbl)
	}
	return arts, nil
}

// SLOMultipliers is the paper's Fig. 14 sweep grid (10x to 150x).
var SLOMultipliers = []float64{10, 20, 40, 80, 150}

// Fig14 reproduces the SLO-robustness sweep of paper Fig. 14: violation
// rate and ANTT vs the SLO multiplier, for both workloads at two arrival
// rates each, including the Oracle.
func Fig14(opts Options) ([]Artifact, error) {
	var arts []Artifact
	for _, setup := range []struct {
		sc    workload.Scenario
		rates []float64
	}{
		{workload.MultiAttNN(), AttNNRates},
		{workload.MultiCNN(), CNNRates},
	} {
		p, err := NewPipeline(setup.sc, opts, 7)
		if err != nil {
			return nil, err
		}
		specs := WithOracle(StandardScheds())
		// One grid per scenario: rates x SLO multipliers, all cells in
		// flight at once.
		var points []Point
		for _, rate := range setup.rates {
			for _, mslo := range SLOMultipliers {
				points = append(points, Point{Rate: rate, MSLO: mslo})
			}
		}
		grid, err := p.RunGrid(specs, points, opts)
		if err != nil {
			return nil, err
		}
		for ri, rate := range setup.rates {
			viol := &Series{
				ID:     "fig14",
				Title:  fmt.Sprintf("%s at %.0f req/s", setup.sc.Name, rate),
				XLabel: "slo_mult",
				YLabel: "SLO violation rate (%)",
				X:      SLOMultipliers,
				Lines:  map[string][]float64{},
				Order:  specNames(specs),
			}
			antt := &Series{
				ID:     "fig14",
				Title:  viol.Title,
				XLabel: "slo_mult",
				YLabel: "ANTT",
				X:      SLOMultipliers,
				Lines:  map[string][]float64{},
				Order:  specNames(specs),
			}
			for mi := range SLOMultipliers {
				rs := grid[ri*len(SLOMultipliers)+mi].Results
				for _, spec := range specs {
					r := rs[spec.Name]
					viol.Lines[spec.Name] = append(viol.Lines[spec.Name], 100*r.ViolationRate)
					antt.Lines[spec.Name] = append(antt.Lines[spec.Name], r.ANTT)
				}
			}
			arts = append(arts, viol, antt)
		}
	}
	return arts, nil
}

// Fig15 reproduces the arrival-rate robustness sweep of paper Fig. 15:
// violation rate, throughput and ANTT vs the arrival rate for both
// workloads at M_slo = 10x.
func Fig15(opts Options) ([]Artifact, error) {
	var arts []Artifact
	for _, setup := range []struct {
		sc    workload.Scenario
		rates []float64
	}{
		{workload.MultiAttNN(), []float64{10, 20, 30, 40}},
		{workload.MultiCNN(), []float64{2, 3, 4, 5, 6}},
	} {
		p, err := NewPipeline(setup.sc, opts, 7)
		if err != nil {
			return nil, err
		}
		specs := WithOracle(StandardScheds())
		mk := func(ylabel string) *Series {
			return &Series{
				ID:     "fig15",
				Title:  setup.sc.Name,
				XLabel: "arrival rate (req/s)",
				YLabel: ylabel,
				X:      setup.rates,
				Lines:  map[string][]float64{},
				Order:  specNames(specs),
			}
		}
		viol, stp, antt := mk("SLO violation rate (%)"), mk("throughput (inf/s)"), mk("ANTT")
		grid, err := p.RunGrid(specs, RatePoints(setup.rates, 10), opts)
		if err != nil {
			return nil, err
		}
		for _, pr := range grid {
			for _, spec := range specs {
				r := pr.Results[spec.Name]
				viol.Lines[spec.Name] = append(viol.Lines[spec.Name], 100*r.ViolationRate)
				stp.Lines[spec.Name] = append(stp.Lines[spec.Name], r.Throughput)
				antt.Lines[spec.Name] = append(antt.Lines[spec.Name], r.ANTT)
			}
		}
		arts = append(arts, viol, stp, antt)
	}
	return arts, nil
}

// specNames extracts the order of a spec slice.
func specNames(specs []SchedSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Fig5 reproduces the motivating example of paper Fig. 5: a ResNet is
// running when a MobileNet request with a tight SLO arrives. A
// sparsity-blind SJF estimates the MobileNet from a pattern-merged profile
// (4.6 ms) and declines to preempt the ResNet (4 ms remaining), so the
// MobileNet violates; the sparsity-pattern-aware scheduler knows this
// MobileNet variant runs in 2.2 ms, preempts, and meets the SLO.
func Fig5(Options) ([]Artifact, error) {
	kRes := trace.NewKey("resnet-like", sparsity.Dense)
	kMobFast := trace.NewKey("mobilenet-like", sparsity.RandomPointwise)
	kMobSlow := trace.NewKey("mobilenet-like", sparsity.ChannelWise)

	store := trace.NewStore()
	store.Add(kRes, []trace.SampleTrace{uniform(10, time.Millisecond, 0.5)})
	store.Add(kMobFast, []trace.SampleTrace{uniform(4, 550*time.Microsecond, 0.5)})
	store.Add(kMobSlow, []trace.SampleTrace{uniform(4, 1750*time.Microsecond, 0.5)})
	lut, err := trace.NewStatsSet(store)
	if err != nil {
		return nil, err
	}

	// The ResNet starts at t=0; the fast-pattern MobileNet arrives at
	// 5.2 ms (mid-layer) with a 5 ms SLO. At the 6 ms layer boundary the
	// ResNet has 4 ms left; the pattern-blind MobileNet estimate is
	// (2.2 + 7.0)/2 = 4.6 ms.
	resnet := &workload.Request{ID: 0, Trace: &store.Get(kRes)[0], SLO: 40 * time.Millisecond}
	mobile := &workload.Request{ID: 1, Trace: &store.Get(kMobFast)[0],
		Arrival: 5200 * time.Microsecond, SLO: 5 * time.Millisecond}

	run := func(s sched.Scheduler) sched.Result {
		res, err := sched.Run(s, []*workload.Request{resnet, mobile},
			sched.Options{RecordTimeline: true})
		if err != nil {
			panic(err)
		}
		return res
	}
	blind := run(sched.NewSJF(sched.NewEstimator(lut)))
	aware := run(core.NewDefault(lut))

	tbl := &Table{
		ID:      "fig5",
		Title:   "SJF scheduling with and without sparsity information (2-request scenario)",
		Columns: []string{"scheduler", "violations", "ANTT"},
		Notes: []string{
			"blind SJF estimates the arriving MobileNet at 4.6 ms (pattern-merged) vs the ResNet's 4 ms remaining: no preemption, SLO violated",
			"the pattern-aware scheduler estimates 2.2 ms, preempts, and both requests meet their SLOs",
		},
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"SJF (no sparsity info)",
			fmt.Sprintf("%.0f", blind.ViolationRate*2), fmt.Sprintf("%.2f", blind.ANTT)},
		[]string{"Dysta (sparsity info)",
			fmt.Sprintf("%.0f", aware.ViolationRate*2), fmt.Sprintf("%.2f", aware.ANTT)},
	)
	return []Artifact{
		tbl,
		&Text{ID: "fig5", Title: "timeline without sparsity info (task 0 = ResNet, 1 = MobileNet)",
			Body: blind.Timeline.Gantt(60)},
		&Text{ID: "fig5", Title: "timeline with sparsity info",
			Body: aware.Timeline.Gantt(60)},
	}, nil
}

// uniform builds a trace with constant per-layer latency and sparsity.
func uniform(layers int, lat time.Duration, sp float64) trace.SampleTrace {
	tr := trace.SampleTrace{
		LayerLatency:  make([]time.Duration, layers),
		LayerSparsity: make([]float64, layers),
	}
	for i := range tr.LayerLatency {
		tr.LayerLatency[i] = lat
		tr.LayerSparsity[i] = sp
	}
	return tr
}
