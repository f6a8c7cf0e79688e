package exp

import (
	"fmt"
	"time"

	"sparsedysta/internal/workload"
)

// StreamScale is the beyond-the-paper streaming study: the same cluster
// operating point swept over growing stream lengths under bounded
// capture. Every cell streams its arrivals, so a run's memory footprint
// is independent of the stream length. The sweep shows the steady-state
// metrics converging as the stream grows — the warm-up and drain
// transients wash out — which is the regime full capture cannot reach
// without O(requests) memory.
func StreamScale(opts Options) ([]Artifact, error) {
	// 25 req/s per engine sits at ~83% of an engine's capacity (~30
	// req/s on this workload): high enough that queues form, low enough
	// that they reach a steady state. At or past saturation the backlog
	// grows with the horizon and the per-length metrics measure stream
	// length, not scheduling.
	const (
		engines       = 4
		ratePerEngine = 25.0
		mslo          = 10.0
	)
	p, err := NewPipeline(workload.MultiAttNN(), opts, 7)
	if err != nil {
		return nil, err
	}

	// Stream lengths scale off the configured protocol so -quick stays
	// quick; the top length is 64x the base (64k at paper scale).
	lengths := []int{
		opts.Requests,
		4 * opts.Requests,
		16 * opts.Requests,
		64 * opts.Requests,
	}

	specs := StandardScheds()
	tbl := &Table{
		ID: "stream-scale",
		Title: fmt.Sprintf("multi-attnn on %d engines at %.0f req/s per engine: streaming runs vs stream length",
			engines, ratePerEngine),
		Columns: []string{"requests", "scheduler", "ANTT", "viol%", "throughput (inf/s)", "p99 lat"},
		Notes: []string{
			"arrivals stream from the generator and metrics aggregate in bounded memory (-capture bounded)",
			"percentiles come from the log-bucketed histogram (at most one bucket width high, ~3%)",
			"per-run memory is independent of the request count, so the sweep extends to lengths the materialized path cannot hold",
		},
	}
	xs := make([]float64, len(lengths))
	for i, n := range lengths {
		xs[i] = float64(n)
	}
	antt := &Series{
		ID:     "stream-scale",
		Title:  "steady-state ANTT vs stream length (streaming runs)",
		XLabel: "requests",
		YLabel: "ANTT",
		X:      xs,
		Lines:  map[string][]float64{},
	}

	for _, n := range lengths {
		o := opts
		o.Requests = n
		o.Capture = "bounded"
		o.Engines = engines
		o.EngineSpecs = nil // the sweep pins its composition
		o.Dispatch = "load"
		grid, err := p.RunGrid(specs, []Point{{Rate: ratePerEngine * engines, MSLO: mslo}}, o)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			r := grid[0].Results[spec.Name]
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("%d", n), spec.Name,
				fmt.Sprintf("%.2f", r.ANTT),
				fmt.Sprintf("%.1f", 100*r.ViolationRate),
				fmt.Sprintf("%.1f", r.Throughput),
				r.P99Latency.Round(time.Microsecond).String(),
			})
			antt.Lines[spec.Name] = append(antt.Lines[spec.Name], r.ANTT)
		}
	}
	return []Artifact{tbl, antt}, nil
}
