package sched

import (
	"math"
	"strings"
	"testing"
	"time"
)

// mustAverage averages results that are expected to pass the outcome
// conservation check.
func mustAverage(t *testing.T, rs []Result) Result {
	t.Helper()
	avg, err := AverageResults(rs)
	if err != nil {
		t.Fatal(err)
	}
	return avg
}

// TestAverageResultsPerModelWeighted pins the request-weighted per-model
// math: a seed with three times the requests of another must pull the
// averaged per-model ANTT and violation rate three times as hard, while
// a model's request count is its mean over the seeds.
func TestAverageResultsPerModelWeighted(t *testing.T) {
	rs := []Result{
		{Scheduler: "x", PerModel: []ModelMetrics{
			{Model: "bert", Requests: 30, ANTT: 2.0, ViolationRate: 0.1},
			{Model: "gpt2", Requests: 10, ANTT: 4.0, ViolationRate: 0.5},
		}},
		{Scheduler: "x", PerModel: []ModelMetrics{
			{Model: "bert", Requests: 10, ANTT: 6.0, ViolationRate: 0.5},
			// gpt2 absent this seed: its average must use only the
			// first seed's weight.
		}},
	}
	avg := mustAverage(t, rs)
	if len(avg.PerModel) != 2 {
		t.Fatalf("PerModel %+v, want bert and gpt2", avg.PerModel)
	}
	bert := avg.PerModel[0]
	if bert.Requests != 20 { // (30 + 10) / 2 seeds
		t.Errorf("bert requests = %d, want 20", bert.Requests)
	}
	// (30*2 + 10*6) / 40 = 3.0; (30*0.1 + 10*0.5) / 40 = 0.2.
	if math.Abs(bert.ANTT-3.0) > 1e-12 {
		t.Errorf("bert ANTT = %v, want 3.0", bert.ANTT)
	}
	if math.Abs(bert.ViolationRate-0.2) > 1e-12 {
		t.Errorf("bert violation rate = %v, want 0.2", bert.ViolationRate)
	}
	gpt := avg.PerModel[1]
	// 10 requests over 2 seeds, 0 in the one without gpt2.
	if gpt.Requests != 5 || gpt.ANTT != 4.0 || gpt.ViolationRate != 0.5 {
		t.Errorf("gpt2 metrics changed by absent seed: %+v", gpt)
	}
}

// TestAverageResultsRounding: the integer counters round to nearest
// instead of truncating.
func TestAverageResultsRounding(t *testing.T) {
	rs := []Result{
		{Scheduler: "x", Preemptions: 10, Requests: 100},
		{Scheduler: "x", Preemptions: 11, Requests: 101},
	}
	avg := mustAverage(t, rs)
	if avg.Preemptions != 11 { // 10.5 rounds up, not down to 10
		t.Errorf("Preemptions = %d, want 11", avg.Preemptions)
	}
	if avg.Requests != 101 { // 100.5 rounds up
		t.Errorf("Requests = %d, want 101", avg.Requests)
	}
}

// TestAverageResultsEmptyPerModel: without per-model data the average
// keeps PerModel nil and still propagates the scheduler name (from the
// first result that has one).
func TestAverageResultsEmptyPerModel(t *testing.T) {
	rs := []Result{
		{ANTT: 1},
		{Scheduler: "late-name", ANTT: 3},
	}
	avg := mustAverage(t, rs)
	if avg.PerModel != nil {
		t.Errorf("PerModel allocated with no per-model inputs: %+v", avg.PerModel)
	}
	if avg.Scheduler != "late-name" {
		t.Errorf("Scheduler = %q", avg.Scheduler)
	}
	if avg.ANTT != 2 {
		t.Errorf("ANTT = %v", avg.ANTT)
	}
}

// TestAverageResultsDropsScheduleRecords: Timeline and Tasks are
// documented as intentionally dropped — per-seed schedules have no
// meaningful average.
func TestAverageResultsDropsScheduleRecords(t *testing.T) {
	rs := []Result{
		{Scheduler: "x", Timeline: &Timeline{}, Tasks: []TaskOutcome{{ID: 1}}},
		{Scheduler: "x", Timeline: &Timeline{}, Tasks: []TaskOutcome{{ID: 2}}},
	}
	avg := mustAverage(t, rs)
	if avg.Timeline != nil || avg.Tasks != nil {
		t.Error("averaging retained Timeline or Tasks")
	}
}

// TestAverageResultsOutcomeConservation: a result whose outcome classes
// drift out of conservation (every offered request must land in exactly
// one of goodput, violations, rejected, lost work, dropped) is a
// simulator bug, and AverageResults must refuse it instead of averaging
// the corruption away.
func TestAverageResultsOutcomeConservation(t *testing.T) {
	good := Result{Scheduler: "x",
		Offered: 10, Requests: 7, Violations: 2, Rejected: 2, LostWork: 1}
	if _, err := AverageResults([]Result{good}); err != nil {
		t.Fatalf("conserving result rejected: %v", err)
	}
	bad := good
	bad.LostWork = 0 // one request now unaccounted for
	_, err := AverageResults([]Result{good, bad})
	if err == nil {
		t.Fatal("drifted outcome classes accepted")
	}
	if !strings.Contains(err.Error(), "conserve") {
		t.Errorf("error does not name the conservation failure: %v", err)
	}
	// Legacy results that predate the Offered counter are exempt: the
	// check cannot apply without knowing the offered load.
	legacy := Result{Scheduler: "x", Requests: 5, Rejected: 3}
	if _, err := AverageResults([]Result{legacy}); err != nil {
		t.Errorf("legacy result without Offered rejected: %v", err)
	}
	// The averaged result must itself conserve: Offered is re-derived
	// from the rounded integer classes rather than rounded independently.
	avg := mustAverage(t, []Result{good, {Scheduler: "x",
		Offered: 11, Requests: 8, Violations: 2, Rejected: 2, LostWork: 1}})
	if err := CheckOutcomeConservation(avg); err != nil {
		t.Errorf("averaged result does not conserve: %v", err)
	}
}

// TestSeedSpreadAcrossSeeds checks the population standard deviation over
// more than two seeds and the degenerate cases.
func TestSeedSpreadAcrossSeeds(t *testing.T) {
	rs := []Result{
		{ANTT: 2, ViolationRate: 0.1},
		{ANTT: 4, ViolationRate: 0.2},
		{ANTT: 6, ViolationRate: 0.3},
	}
	anttSD, violSD := SeedSpread(rs)
	want := math.Sqrt(8.0 / 3.0) // population SD of {2,4,6}
	if math.Abs(anttSD-want) > 1e-12 {
		t.Errorf("ANTT SD = %v, want %v", anttSD, want)
	}
	// Population SD of {0.1, 0.2, 0.3} is sqrt(0.02/3).
	if math.Abs(violSD-math.Sqrt(0.02/3.0)) > 1e-12 {
		t.Errorf("violation SD = %v", violSD)
	}
	if a, v := SeedSpread(nil); a != 0 || v != 0 {
		t.Error("nil spread not zero")
	}
	if a, v := SeedSpread(rs[:1]); a != 0 || v != 0 {
		t.Error("single-seed spread not zero")
	}
	// Identical seeds spread zero.
	same := []Result{{ANTT: 5, ViolationRate: 0.4}, {ANTT: 5, ViolationRate: 0.4}}
	if a, v := SeedSpread(same); a != 0 || v != 0 {
		t.Errorf("identical seeds spread %v, %v", a, v)
	}
	// MeanLatency-style fields do not enter the spread; only the two
	// headline metrics do.
	rs[0].MeanLatency = time.Hour
	if a, _ := SeedSpread(rs); math.Abs(a-want) > 1e-12 {
		t.Error("unrelated fields leaked into the spread")
	}
}
