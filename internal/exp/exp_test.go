package exp

import (
	"strconv"
	"strings"
	"testing"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// workloadAttNN and schedSeedSpread are thin aliases keeping test bodies
// terse.
func workloadAttNN() workload.Scenario { return workload.MultiAttNN() }

func schedSeedSpread(rs []sched.Result) (float64, float64) { return sched.SeedSpread(rs) }

// tiny returns options small enough for unit tests.
func tiny() Options {
	return Options{
		Seeds:          1,
		Requests:       120,
		ProfileSamples: 20,
		EvalSamples:    60,
		DatasetSamples: 300,
	}
}

func TestRenderTable(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"3", "4"}},
		Notes:   []string{"a note"},
	}
	out := tbl.Render()
	for _, want := range []string{"demo", "a", "3", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("table render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSeries(t *testing.T) {
	s := &Series{
		ID: "y", Title: "sweep", XLabel: "x", YLabel: "metric",
		X:     []float64{1, 2},
		Lines: map[string][]float64{"B": {3, 4}, "A": {1, 2}},
		Order: []string{"B"},
	}
	out := s.Render()
	// B is ordered first; A follows alphabetically.
	if bi, ai := strings.Index(out, "B"), strings.Index(out, "A"); bi < 0 || ai < 0 || bi > ai {
		t.Errorf("series column order wrong:\n%s", out)
	}
	if !strings.Contains(out, "3.000") || !strings.Contains(out, "2.000") {
		t.Errorf("series values missing:\n%s", out)
	}
	// Ragged line: missing point renders as '-'.
	s.Lines["C"] = []float64{9}
	if out := s.Render(); !strings.Contains(out, "-") {
		t.Errorf("ragged series not padded:\n%s", out)
	}
}

func TestRenderText(t *testing.T) {
	x := &Text{ID: "z", Title: "t", Body: "body\n"}
	if out := x.Render(); !strings.Contains(out, "body") {
		t.Errorf("text render wrong: %q", out)
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 14 {
		t.Errorf("registry has %d experiments, want 14 (every paper table+figure)", len(ids))
	}
	for _, id := range ids {
		if _, err := Lookup(id); err != nil {
			t.Errorf("Lookup(%q): %v", id, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestOptionsPresets(t *testing.T) {
	d, q := DefaultOptions(), QuickOptions()
	if d.Seeds != 5 || d.Requests != 1000 {
		t.Errorf("default options deviate from the paper protocol: %+v", d)
	}
	if q.Requests >= d.Requests || q.Seeds >= d.Seeds {
		t.Error("quick options not smaller than default")
	}
}

// TestProfilingExperiments runs every Phase 1 experiment at tiny scale and
// sanity-checks the artefacts.
func TestProfilingExperiments(t *testing.T) {
	for _, id := range []string{"fig2", "fig3", "table2", "fig4", "fig9"} {
		r, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		arts, err := r(tiny())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(arts) == 0 {
			t.Fatalf("%s produced no artifacts", id)
		}
		for _, a := range arts {
			if a.Render() == "" {
				t.Errorf("%s produced empty render", id)
			}
		}
	}
}

// TestFig2Spread checks the reproduction target: the last-layer normalized
// latency spread reaches at least [0.8, 1.3] (paper: 0.6-1.8).
func TestFig2Spread(t *testing.T) {
	arts, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	tbl, ok := arts[len(arts)-1].(*Table)
	if !ok {
		t.Fatalf("fig2 summary is not a table")
	}
	for _, row := range tbl.Rows {
		min, _ := strconv.ParseFloat(row[1], 64)
		max, _ := strconv.ParseFloat(row[5], 64)
		if min > 0.85 || max < 1.25 {
			t.Errorf("%s spread [%.2f, %.2f] too narrow for Fig. 2", row[0], min, max)
		}
	}
}

// TestFig4PatternGap checks the pattern effect: channel-wise valid MACs
// exceed random at equal sparsity, by a bounded factor (paper: up to 40%).
func TestFig4PatternGap(t *testing.T) {
	arts, err := Fig4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		tbl := a.(*Table)
		if len(tbl.Rows) != 2 {
			t.Fatalf("fig4 table has %d rows", len(tbl.Rows))
		}
		norm, _ := strconv.ParseFloat(tbl.Rows[1][2], 64)
		if norm <= 1.0 || norm > 1.9 {
			t.Errorf("%s: channel/random valid-MAC ratio %.3f outside (1.0, 1.9]", tbl.Title, norm)
		}
	}
}

// TestFig5Story checks the motivating example's outcome: blind SJF
// violates the MobileNet request; the sparsity-aware scheduler does not.
func TestFig5Story(t *testing.T) {
	arts, err := Fig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	tbl := arts[0].(*Table)
	if tbl.Rows[0][1] != "1" {
		t.Errorf("blind SJF violations = %s, want 1", tbl.Rows[0][1])
	}
	if tbl.Rows[1][1] != "0" {
		t.Errorf("sparsity-aware violations = %s, want 0", tbl.Rows[1][1])
	}
}

// TestTable5Shape runs the headline experiment at tiny scale and checks
// the paper's qualitative claims: Dysta has the best ANTT and the best
// violation rate of the six schedulers on both workloads. At the full
// protocol it checks the ANTT claim seed by seed: Dysta's is the lowest
// on each of the five paired seeds, on both workloads.
func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline; skipped in -short")
	}
	opts := tiny()
	opts.Requests = 400
	opts.Seeds = 2
	arts, err := Table5(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := arts[0].(*Table)
	get := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", row[col], err)
		}
		return v
	}
	var dysta []float64
	bestANTTAtt, bestViolAtt := 1e18, 1e18
	bestANTTCnn, bestViolCnn := 1e18, 1e18
	for _, row := range tbl.Rows {
		antt, viol := get(row, 1), get(row, 3)
		anttC, violC := get(row, 5), get(row, 7)
		if row[0] == "Dysta" {
			dysta = []float64{antt, viol, anttC, violC}
		}
		if antt < bestANTTAtt {
			bestANTTAtt = antt
		}
		if viol < bestViolAtt {
			bestViolAtt = viol
		}
		if anttC < bestANTTCnn {
			bestANTTCnn = anttC
		}
		if violC < bestViolCnn {
			bestViolCnn = violC
		}
	}
	if dysta == nil {
		t.Fatal("Dysta row missing")
	}
	// Dysta leads (within 5% slack for seed noise) on all four columns.
	if dysta[0] > bestANTTAtt*1.05 || dysta[2] > bestANTTCnn*1.05 {
		t.Errorf("Dysta ANTT not best: attnn %.2f (best %.2f), cnn %.2f (best %.2f)",
			dysta[0], bestANTTAtt, dysta[2], bestANTTCnn)
	}
	if dysta[1] > bestViolAtt+1.0 || dysta[3] > bestViolCnn+1.0 {
		t.Errorf("Dysta violations not best: attnn %.1f%% (best %.1f%%), cnn %.1f%% (best %.1f%%)",
			dysta[1], bestViolAtt, dysta[3], bestViolCnn)
	}

	// Paired by seed at the full protocol: every scheduler runs on the
	// same arrival streams, and Dysta's ANTT is below every baseline's
	// on every seed of both workloads.
	full, err := table5Grids(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	di := len(table5Order) - 1 // Dysta's spec index
	for wi, setup := range table5Setups {
		name := setup.sc().Name
		dseeds := full[wi].seedsOf(0, di)
		for si, base := range table5Order[:di] {
			bseeds := full[wi].seedsOf(0, si)
			if len(dseeds) != DefaultOptions().Seeds || len(bseeds) != len(dseeds) {
				t.Fatalf("%s: %d Dysta and %d %s seeds, want %d each",
					name, len(dseeds), len(bseeds), base, DefaultOptions().Seeds)
			}
			for i, d := range dseeds {
				if b := bseeds[i]; d.ANTT >= b.ANTT {
					t.Errorf("%s seed %d: Dysta's ANTT %.3f is not below %s's %.3f", name, i, d.ANTT, base, b.ANTT)
				}
			}
		}
	}
}

// TestHardwareExperiments checks Fig. 16 and Table 6 artefacts.
func TestHardwareExperiments(t *testing.T) {
	arts, err := Fig16(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 {
		t.Fatalf("fig16 produced %d tables, want 2 (two FIFO depths)", len(arts))
	}
	for _, a := range arts {
		tbl := a.(*Table)
		// Normalized columns must be monotonically non-increasing down
		// the design list.
		prev := 1e18
		for _, row := range tbl.Rows {
			lut, _ := strconv.ParseFloat(row[1], 64)
			if lut > prev {
				t.Errorf("%s: normalized LUT not decreasing: %v", tbl.Title, row)
			}
			prev = lut
		}
	}

	t6, err := Table6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := t6[0].Render()
	if !strings.Contains(out, "Eyeriss-V2") || !strings.Contains(out, "overhead") {
		t.Errorf("table6 render incomplete:\n%s", out)
	}
}

// TestTable4Artifacts checks the predictor comparison rows.
func TestTable4Artifacts(t *testing.T) {
	arts, err := Table4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	tbl := arts[0].(*Table)
	if len(tbl.Rows) != 2 {
		t.Fatalf("table4 has %d rows, want 2", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != 6 {
			t.Fatalf("table4 row has %d cells", len(row))
		}
	}
}

// TestTradeoffAndBreakdownSmoke runs fig12 and fig13 at tiny scale.
func TestTradeoffAndBreakdownSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipelines; skipped in -short")
	}
	opts := tiny()
	opts.Requests = 80
	for _, id := range []string{"fig12", "fig13"} {
		r, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		arts, err := r(opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(arts) == 0 {
			t.Fatalf("%s: no artifacts", id)
		}
	}
}

// TestRunSeedsSpread exercises the per-seed API behind Table 5's
// stability notes.
func TestRunSeedsSpread(t *testing.T) {
	opts := tiny()
	opts.Seeds = 3
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	spec := StandardScheds()[1] // SJF
	rs, err := p.RunSeeds(spec, 30, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d seed results", len(rs))
	}
	anttSD, violSD := schedSeedSpread(rs)
	if anttSD < 0 || violSD < 0 {
		t.Error("negative spreads")
	}
}

// TestSweepSmoke runs the two sweep figures at a drastically reduced
// protocol, temporarily narrowing the multiplier grid.
func TestSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps; skipped in -short")
	}
	old := SLOMultipliers
	SLOMultipliers = []float64{10, 40}
	defer func() { SLOMultipliers = old }()

	opts := tiny()
	opts.Requests = 50
	for _, id := range []string{"fig14", "fig15"} {
		r, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		arts, err := r(opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		// Each sweep emits multiple Series with consistent lengths.
		for _, a := range arts {
			s, ok := a.(*Series)
			if !ok {
				t.Fatalf("%s produced a non-series artifact", id)
			}
			for name, ys := range s.Lines {
				if len(ys) != len(s.X) {
					t.Errorf("%s %s line %q has %d points for %d xs",
						id, s.Title, name, len(ys), len(s.X))
				}
			}
		}
	}
}
