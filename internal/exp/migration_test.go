package exp

import (
	"encoding/json"
	"testing"
	"time"
)

// TestMigrationRegistered: the experiment resolves through Lookup and
// appears in the scaling-study listing.
func TestMigrationRegistered(t *testing.T) {
	if _, err := Lookup("migration"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range ScaleIDs() {
		if id == "migration" {
			found = true
		}
	}
	if !found {
		t.Error("migration missing from ScaleIDs")
	}
}

// TestNeutralRebalanceOptionsBitIdentical: rebalance "none" (any
// interval) and a real policy at interval 0 must be byte-identical to a
// run with no migration options at all, across every dispatch policy —
// the exp-layer end of the PR's equivalence chain.
func TestNeutralRebalanceOptionsBitIdentical(t *testing.T) {
	opts := tiny()
	opts.Engines = 3
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := StandardScheds()[:3]
	for _, policy := range DispatchPolicies {
		o := opts
		o.Dispatch = policy
		want, err := p.RunPoint(specs, 90, 10, o)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want)
		for name, neutral := range map[string]Options{
			"none-with-interval": func() Options {
				n := o
				n.Rebalance = "none"
				n.RebalanceInterval = 2 * time.Millisecond
				n.MigrationCost = time.Millisecond
				return n
			}(),
			"steal-zero-interval": func() Options {
				n := o
				n.Rebalance = "steal"
				n.RebalanceInterval = 0
				return n
			}(),
		} {
			got, err := p.RunPoint(specs, 90, 10, neutral)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(got)
			if string(wantJSON) != string(b) {
				t.Errorf("dispatch=%s %s: neutral migration knobs diverge", policy, name)
			}
		}
	}
}

// TestMigrationWorkersBitIdentical: steal and shed grids are
// byte-identical across worker counts — migration preserves the parallel
// runner's determinism contract.
func TestMigrationWorkersBitIdentical(t *testing.T) {
	opts := tiny()
	opts.Seeds = 2
	opts.Engines = 0
	_, specs, err := ParseEngines("1x0.5,1x1,2x2")
	if err != nil {
		t.Fatal(err)
	}
	opts.EngineSpecs = specs
	opts.Dispatch = "load"
	opts.SignalInterval = 20 * time.Millisecond
	opts.RebalanceInterval = time.Millisecond
	opts.MigrationCost = 200 * time.Microsecond
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"steal", "shed"} {
		o := opts
		o.Rebalance = policy
		seq := o
		seq.Workers = 1
		want, err := p.RunPoint(StandardScheds(), 120, 10, seq)
		if err != nil {
			t.Fatal(err)
		}
		par := o
		par.Workers = 8
		got, err := p.RunPoint(StandardScheds(), 120, 10, par)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(got)
		if string(a) != string(b) {
			t.Errorf("%s: migrating grid differs across worker counts", policy)
		}
	}
}

// TestUnknownRebalanceRejected: a bad policy name surfaces as an error from
// RunPoint and RunSeeds on both the cluster and the direct path.
func TestUnknownRebalanceRejected(t *testing.T) {
	opts := tiny()
	opts.Rebalance = "pilfer"
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, engines := range []int{0, 1, 2} {
		o := opts
		o.Engines = engines
		if _, err := p.RunPoint(StandardScheds()[:1], 30, 10, o); err == nil {
			t.Fatalf("unknown rebalance policy accepted on %d engines", engines)
		}
		if _, err := p.RunSeeds(StandardScheds()[0], 30, 10, o); err == nil {
			t.Fatalf("RunSeeds accepted an unknown rebalance policy on %d engines", engines)
		}
	}
}

// TestStealRecoversStaleSignalGap is the PR's acceptance property at a
// reduced protocol: on the heterogeneous mixed cluster with stale
// dispatch signals, work stealing must win back at least half of the
// violation-rate gap that staleness opened over the exact-signal router.
func TestStealRecoversStaleSignalGap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	opts := tiny()
	opts.Seeds = 2
	opts.Requests = 400
	opts.Engines = 0
	_, specs, err := ParseEngines("1x0.5,1x1,2x2")
	if err != nil {
		t.Fatal(err)
	}
	opts.EngineSpecs = specs
	opts.Dispatch = "load"
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	dysta := dystaOnly()
	const rate = 120
	run := func(stale time.Duration, policy string) float64 {
		o := opts
		o.SignalInterval = stale
		o.Rebalance = policy
		if policy != "none" {
			o.RebalanceInterval = 500 * time.Microsecond
			o.MigrationCost = 200 * time.Microsecond
		}
		rs, err := p.RunPoint(dysta, rate, 10, o)
		if err != nil {
			t.Fatal(err)
		}
		return rs["Dysta"].ViolationRate
	}
	exact := run(0, "none")
	staleNone := run(MigrationStaleInterval, "none")
	steal := run(MigrationStaleInterval, "steal")
	gap := staleNone - exact
	if gap <= 0 {
		t.Fatalf("no stale-signal gap to recover: exact %.4f, stale %.4f", exact, staleNone)
	}
	if rec := staleNone - steal; rec < gap/2 {
		t.Errorf("steal recovered %.4f of a %.4f violation-rate gap (< half): exact %.4f stale %.4f steal %.4f",
			rec, gap, exact, staleNone, steal)
	}
}

// TestMigrationExperimentStructure runs the registered experiment at a
// tiny protocol: the table covers every (mix, cell) row, the series has a
// point per interval for each line, migrating rows actually migrate, and
// the none rows report zero migrations.
func TestMigrationExperimentStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	opts := tiny()
	opts.Requests = 150
	opts.Workers = 4
	arts, err := Migration(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 {
		t.Fatalf("got %d artifacts", len(arts))
	}
	tbl := arts[0].(*Table)
	wantRows := len(MigrationMixes) * (2 + 2*len(RebalanceIntervals))
	if len(tbl.Rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), wantRows)
	}
	for _, row := range tbl.Rows {
		if row[2] == "none" && row[4] != "0" {
			t.Errorf("none row migrated: %v", row)
		}
	}
	viol := arts[1].(*Series)
	for line, ys := range viol.Lines {
		if len(ys) != len(RebalanceIntervals) {
			t.Fatalf("%s: %d points, want %d", line, len(ys), len(RebalanceIntervals))
		}
	}
}
