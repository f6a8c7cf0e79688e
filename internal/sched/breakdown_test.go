package sched_test

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
)

// oraclePerModel is the per-model arithmetic of Aggregator.Result while
// the breakdown was a map, kept as the oracle for the sorted slice: each
// model's NTTs and violations summed in completion order, then divided
// by its request count. Nothing completed is no breakdown.
func oraclePerModel(completions []sched.TaskOutcome) map[string]sched.ModelMetrics {
	if len(completions) == 0 {
		return nil
	}
	pm := map[string]sched.ModelMetrics{}
	for _, o := range completions {
		m := pm[o.Model]
		m.Requests++
		m.ANTT += o.NTT
		if o.Violated {
			m.ViolationRate++
		}
		pm[o.Model] = m
	}
	for name, m := range pm {
		m.ANTT /= float64(m.Requests)
		m.ViolationRate /= float64(m.Requests)
		pm[name] = m
	}
	return pm
}

// oracleAverage is AverageResults' per-model arithmetic while the
// breakdown was a map, kept as the oracle: each model's per-seed means
// weighted by the seed's request count and summed in input order, its
// request count averaged over every input (0 in one without the model)
// and rounded to the nearest integer.
func oracleAverage(rs []sched.Result) map[string]sched.ModelMetrics {
	var avg map[string]sched.ModelMetrics
	for _, r := range rs {
		if len(r.PerModel) > 0 && avg == nil {
			avg = map[string]sched.ModelMetrics{}
		}
		for _, m := range r.PerModel {
			agg := avg[m.Model]
			agg.Requests += m.Requests
			agg.ANTT += m.ANTT * float64(m.Requests)
			agg.ViolationRate += m.ViolationRate * float64(m.Requests)
			avg[m.Model] = agg
		}
	}
	n := float64(len(rs))
	for name, m := range avg {
		if m.Requests > 0 {
			m.ANTT /= float64(m.Requests)
			m.ViolationRate /= float64(m.Requests)
		}
		m.Requests = int(math.Round(float64(m.Requests) / n))
		avg[name] = m
	}
	return avg
}

// sortedBreakdown lists an oracle's breakdown in Result.PerModel's form:
// one entry per model, named, in name order; nil stays nil.
func sortedBreakdown(pm map[string]sched.ModelMetrics) []sched.ModelMetrics {
	if pm == nil {
		return nil
	}
	out := make([]sched.ModelMetrics, 0, len(pm))
	for _, name := range slices.Sorted(maps.Keys(pm)) {
		m := pm[name]
		m.Model = name
		out = append(out, m)
	}
	return out
}

// checkBreakdown requires got to equal the oracle's breakdown field for
// field, with its names strictly increasing.
func checkBreakdown(t *testing.T, label string, got []sched.ModelMetrics, oracle map[string]sched.ModelMetrics) {
	t.Helper()
	if want := sortedBreakdown(oracle); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: breakdown\n%+v\nwant the oracle's\n%+v", label, got, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Model >= got[i].Model {
			t.Errorf("%s: entry %d (%q) does not follow %q", label, i, got[i].Model, got[i-1].Model)
		}
	}
}

// TestPerModelMatchesMapOracle: the sorted per-model slice of a single
// engine under full and bounded capture, and of a 4-engine cluster
// under churn, equals the map arithmetic fed the run's completions in
// the order its Observer saw them. Averaging the cluster's seeds, whose
// model sets differ, equals the map arithmetic's average too.
func TestPerModelMatchesMapOracle(t *testing.T) {
	lut, reqs, _, _, _ := streamFixture(t, 300, 5)
	for _, opts := range []sched.Options{{}, {BoundedCapture: true, Exemplars: 8}} {
		var seq []sched.TaskOutcome
		opts.Observer = func(o sched.TaskOutcome) { seq = append(seq, o) }
		res, err := sched.Run(core.NewDefault(lut), reqs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PerModel) < 3 {
			t.Fatalf("bounded=%v: %d models completed, want the scenario's 3", opts.BoundedCapture, len(res.PerModel))
		}
		checkBreakdown(t, fmt.Sprintf("one engine, bounded=%v", opts.BoundedCapture), res.PerModel, oraclePerModel(seq))
	}

	est := sched.NewEstimator(lut)
	var seeds []sched.Result
	for seed := uint64(1); seed <= 3; seed++ {
		_, reqs, _, _, _ := streamFixture(t, 60, seed)
		horizon := reqs[len(reqs)-1].Arrival * 2
		plan, err := cluster.GenChurn(4, horizon, horizon/4, horizon/20, 50+seed)
		if err != nil {
			t.Fatal(err)
		}
		var seq []sched.TaskOutcome
		res, err := cluster.Run(func(int) sched.Scheduler { return sched.NewSJF(est) }, reqs, cluster.Config{
			Engines: 4, Dispatch: cluster.NewJSQ(), Churn: &plan, RetryMax: 1,
			Sched: sched.Options{Observer: func(o sched.TaskOutcome) { seq = append(seq, o) }},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.ChurnEvents == 0 {
			t.Fatalf("seed %d: no churn event", seed)
		}
		checkBreakdown(t, fmt.Sprintf("churned cluster, seed %d", seed), res.PerModel, oraclePerModel(seq))
		seeds = append(seeds, res.Result)
	}
	// Drop a model from the middle seed, so the model sets differ.
	seeds[1].PerModel = slices.Delete(slices.Clone(seeds[1].PerModel), 1, 2)
	avg, err := sched.AverageResults(seeds)
	if err != nil {
		t.Fatal(err)
	}
	checkBreakdown(t, "average over churned seeds", avg.PerModel, oracleAverage(seeds))
}

// TestAverageBreakdownMatchesMapOracle: averaging seeds whose model sets
// differ (a model missing from one seed, and one seen only in the last)
// gives each model's request count averaged over every seed, rounded,
// and its request-weighted means, exactly as the map arithmetic did; an
// input with no breakdown counts as a seed without its models.
func TestAverageBreakdownMatchesMapOracle(t *testing.T) {
	rs := []sched.Result{
		{Scheduler: "x", PerModel: []sched.ModelMetrics{
			{Model: "bart", Requests: 7, ANTT: 1.25, ViolationRate: 1.0 / 7},
			{Model: "bert", Requests: 30, ANTT: 2.1, ViolationRate: 0.1},
			{Model: "gpt2", Requests: 10, ANTT: 4.3, ViolationRate: 0.5},
		}},
		{Scheduler: "x"},
		{Scheduler: "x", PerModel: []sched.ModelMetrics{
			{Model: "bert", Requests: 11, ANTT: 6.7, ViolationRate: 5.0 / 11},
			{Model: "gpt2", Requests: 3, ANTT: 1.1, ViolationRate: 0},
		}},
		{Scheduler: "x", PerModel: []sched.ModelMetrics{
			{Model: "bert", Requests: 12, ANTT: 3.3, ViolationRate: 0.25},
			{Model: "vit", Requests: 5, ANTT: 9.9, ViolationRate: 0.8},
		}},
	}
	avg, err := sched.AverageResults(rs)
	if err != nil {
		t.Fatal(err)
	}
	checkBreakdown(t, "average", avg.PerModel, oracleAverage(rs))
	if len(avg.PerModel) != 4 || avg.PerModel[1].Requests != 13 { // bert: (30 + 0 + 11 + 12) / 4
		t.Errorf("breakdown %+v, want 4 models with bert's 53 requests averaged to 13", avg.PerModel)
	}
}

// TestBreakdownNilWithoutCompletions: a run that completed nothing, and
// an average of results without a breakdown, have a nil PerModel, with
// or without a slot to cut one from.
func TestBreakdownNilWithoutCompletions(t *testing.T) {
	slot := make([]sched.ModelMetrics, 4)
	for _, s := range [][]sched.ModelMetrics{nil, slot} {
		e := sched.NewEngine(sched.NewFCFS(), sched.Options{})
		_, reqs, _, _, _ := streamFixture(t, 3, 1)
		for _, r := range reqs {
			if err := e.Inject(r, r.Arrival); err != nil {
				t.Fatal(err)
			}
		}
		if res := sched.FinishInto(e, s); res.Requests != 0 || res.PerModel != nil {
			t.Errorf("slot of %d: a run that completed nothing has %d requests and breakdown %+v",
				len(s), res.Requests, res.PerModel)
		}
		for _, rs := range [][]sched.Result{
			{{Scheduler: "x"}, {Scheduler: "x"}},
			{{Scheduler: "x", PerModel: []sched.ModelMetrics{}}},
		} {
			avg, err := sched.AverageResultsInto(rs, s)
			if err != nil {
				t.Fatal(err)
			}
			if avg.PerModel != nil {
				t.Errorf("slot of %d: average of %+v has breakdown %+v, want nil", len(s), rs, avg.PerModel)
			}
		}
	}
}

// TestBreakdownSlots: a run's or an average's breakdown cut from a slot
// equals the one it makes without, sits at the slot's start, capped at
// its length, and a slot too short for it is left alone for a new
// slice.
func TestBreakdownSlots(t *testing.T) {
	lut, reqs, _, _, _ := streamFixture(t, 200, 5)
	var seeds []sched.Result
	for _, n := range []int{200, 120} {
		res, err := sched.Run(core.NewDefault(lut), reqs[:n], sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, res)
	}
	avg, err := sched.AverageResults(seeds)
	if err != nil {
		t.Fatal(err)
	}
	models := len(avg.PerModel)
	if models < 2 {
		t.Fatalf("%d models completed, want at least 2", models)
	}
	checkSlot := func(name string, got, want []sched.ModelMetrics, slot []sched.ModelMetrics) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s, slot of %d: breakdown %+v, want %+v", name, len(slot), got, want)
		}
		inSlot := len(slot) >= len(want)
		if sameStart := len(slot) > 0 && &got[0] == &slot[0]; sameStart != inSlot {
			t.Errorf("%s, slot of %d: breakdown of %d in the slot is %v, want %v", name, len(slot), len(want), sameStart, inSlot)
		}
		if cap(got) != len(got) {
			t.Errorf("%s, slot of %d: breakdown of %d has capacity %d", name, len(slot), len(got), cap(got))
		}
		if !inSlot && slices.ContainsFunc(slot, func(m sched.ModelMetrics) bool { return m != sched.ModelMetrics{} }) {
			t.Errorf("%s: a slot of %d too short for %d entries was written: %+v", name, len(slot), len(want), slot)
		}
	}
	for _, n := range []int{models - 1, models, models + 2} {
		var r sched.Runner
		slot := make([]sched.ModelMetrics, n)
		got, err := r.RunInto(core.NewDefault(lut), sched.SortedSource(reqs), sched.Options{}, slot)
		if err != nil {
			t.Fatal(err)
		}
		checkSlot("run", got.PerModel, seeds[0].PerModel, slot)
		slot = make([]sched.ModelMetrics, n)
		a, err := sched.AverageResultsInto(seeds, slot)
		if err != nil {
			t.Fatal(err)
		}
		checkSlot("average", a.PerModel, avg.PerModel, slot)
	}
}

// TestAverageResultsAllocatesOnlyItsBreakdown: averaging 5 seeds of 4
// models makes 1 allocation, the averaged breakdown, sized once; the
// map it replaced made 2 and more as it grew.
func TestAverageResultsAllocatesOnlyItsBreakdown(t *testing.T) {
	rs := make([]sched.Result, 5)
	for i := range rs {
		for _, model := range []string{"bart", "bert", "gpt2", "vit"} {
			rs[i].PerModel = append(rs[i].PerModel, sched.ModelMetrics{
				Model: model, Requests: 10 + i, ANTT: float64(i + 2), ViolationRate: 0.1})
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sched.AverageResults(rs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("AverageResults of 5 seeds x 4 models made %v allocations, want 1", allocs)
	}
	slot := make([]sched.ModelMetrics, 4)
	allocs = testing.AllocsPerRun(10, func() {
		if _, err := sched.AverageResultsInto(rs, slot); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AverageResultsInto of 5 seeds x 4 models into a 4-entry slot made %v allocations, want 0", allocs)
	}
}
