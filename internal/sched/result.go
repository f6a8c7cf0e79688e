package sched

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"sparsedysta/internal/stats"
)

// Result aggregates one simulation run's metrics (paper §6.1).
type Result struct {
	Scheduler string
	// ANTT is the average normalized turnaround time:
	// mean(T_multi / T_isol) over requests.
	ANTT float64
	// ViolationRate is the fraction of requests finishing past
	// Arrival + SLO.
	ViolationRate float64
	// Throughput is completed requests per second of makespan (the
	// paper's STP, inf/s).
	Throughput float64
	// Goodput is completed requests that met their SLO per second of
	// makespan: the throughput a serving operator actually gets paid
	// for. Admission control trades throughput for goodput by shedding
	// requests predicted to violate anyway.
	Goodput float64
	// MeanLatency and the latency percentiles summarize multi-tenant
	// turnaround. Full-capture runs compute the percentiles from the
	// retained latencies (linear interpolation between closest ranks);
	// bounded-capture runs read them from a log-bucketed streaming
	// histogram, which biases each percentile upward by at most one
	// bucket width (~3% of its magnitude) — the price of
	// request-count-independent memory. The percentiles are the only
	// metrics on which the two modes differ.
	MeanLatency time.Duration
	P50Latency  time.Duration
	P95Latency  time.Duration
	P99Latency  time.Duration
	// Preemptions counts scheduling decisions that switched tasks while
	// the previous choice still had layers left.
	Preemptions int
	// Requests is the number of simulated requests.
	Requests int
	// Dropped counts requests injected but not completed when the engine
	// was finalized. Zero for every drained run (Run and cluster.Run
	// always drain); nonzero flags an orchestrator that called
	// Engine.Finish early, whose metrics cover only the completed subset
	// — typically biased optimistic, since the unfinished stragglers are
	// the slow, violating ones.
	Dropped int
	// Rejected counts requests shed by a dispatch-layer admission policy
	// before ever reaching an engine (internal/cluster). A rejected
	// request appears in no other metric: ANTT, latency percentiles and
	// violation rate cover admitted requests only, which is why Goodput —
	// not ViolationRate — is the headline metric under admission control.
	Rejected int
	// Offered is the total number of requests that entered the system:
	// Engine.Finish sets it to the injected count, cluster.Run to the
	// full stream length (admitted + rejected). Every offered request
	// must land in exactly one outcome class — SLO-met completion,
	// violated completion, Rejected, LostWork, or Dropped — which is the
	// conservation law AverageResults enforces. Zero marks a Result that
	// predates the accounting (hand-built fixtures); the check skips it.
	Offered int
	// Violations is the number of completed requests that missed their
	// deadline — the integer behind ViolationRate, carried so the
	// outcome classes add up exactly (Requests - Violations is the
	// SLO-met completion count behind Goodput).
	Violations int
	// LostWork counts admitted requests that never completed because
	// engine failures destroyed them past the retry budget (or no engine
	// ever came back to serve them). They appear in no latency metric —
	// like Rejected, they are a terminal outcome class of their own.
	LostWork int
	// Failovers counts queued-but-never-started requests force-extracted
	// from a failing or draining engine and redistributed to a live one;
	// Retries counts restart-from-zero re-injections of requests whose
	// partial execution a failure destroyed; Redirects counts dispatch
	// decisions that landed on a dead engine (the router's signals were
	// stale) and had to bounce to a live one. All are dispatch-layer
	// counters carried here so they survive the seed-averaging pipeline.
	Failovers, Retries, Redirects int
	// ScaleUps and ScaleDowns count autoscaler actions — engines joined
	// into and drained out of the live set by the cluster's SLO-driven
	// engine-count policy (internal/cluster, zero without one). The cost
	// the actions trade against Goodput is EngineSeconds. Dispatch-layer
	// counters carried here so they survive the seed-averaging pipeline.
	ScaleUps, ScaleDowns int
	// Migrations counts requests moved between engines by the cluster
	// rebalancer (internal/cluster work stealing / shedding); zero on
	// every single-engine run. MigrationWins and MigrationLosses split
	// the migrated requests by whether they ultimately met their SLO —
	// the accounting that shows whether moving work paid for its
	// transfer cost. Like Rejected, these are dispatch-layer counters
	// carried here so they survive the seed-averaging pipeline.
	Migrations, MigrationWins, MigrationLosses int
	// Makespan is the time from first arrival to last completion.
	Makespan time.Duration
	// EngineSeconds is the provisioned-capacity cost of the run: the
	// total engine-time paid for, in seconds (the serving analogue of
	// core-hours). A single engine bills its makespan; a fixed N-engine
	// cluster bills N x makespan; an autoscaled or churned cluster bills
	// only the spans its engines were actually in service, which is what
	// makes the cost-vs-goodput frontier comparable across policies.
	// Like the dispatch-layer counters above, it is carried here so it
	// survives the seed-averaging pipeline.
	EngineSeconds float64
	// PerModel breaks ANTT and violation rate down by model, one entry
	// per model that completed a request, in strictly increasing
	// ModelMetrics.Model order; short and long tenants often fare very
	// differently under the same scheduler. Nil when nothing completed.
	PerModel []ModelMetrics
	// Timeline is the execution schedule (only with
	// Options.RecordTimeline).
	Timeline *Timeline
	// Tasks holds per-request outcomes (only with Options.RecordTasks).
	Tasks []TaskOutcome
	// Exemplars is a fixed-size uniform sample of per-request outcomes,
	// the bounded-capture replacement for full Tasks capture (only with
	// Options.BoundedCapture and a positive Options.Exemplars).
	Exemplars []TaskOutcome
}

// ModelMetrics aggregates one model's completed requests within a run
// (Result.PerModel): how many there were, their mean normalized
// turnaround and the fraction that missed their deadline.
type ModelMetrics struct {
	// Model is the model's name (TaskOutcome.Model).
	Model         string
	Requests      int
	ANTT          float64
	ViolationRate float64
}

// compareModels orders per-model entries by model name, the order of
// Result.PerModel.
func compareModels(x, y ModelMetrics) int { return strings.Compare(x.Model, y.Model) }

// breakdownSlot returns n entries for a breakdown: slot's first n, capped
// at n so that an append to the breakdown cannot write past it, when
// slot holds at least n, and otherwise a new slice. Callers that keep
// many breakdowns cut each one's slot from one slab.
func breakdownSlot(slot []ModelMetrics, n int) []ModelMetrics {
	if len(slot) < n {
		return make([]ModelMetrics, n)
	}
	return slot[:n:n]
}

// TaskOutcome is one request's final accounting.
type TaskOutcome struct {
	ID         int
	Model      string
	Arrival    time.Duration
	Completion time.Duration
	Isolated   time.Duration
	// NTT is the normalized turnaround (T_multi / T_isol).
	NTT float64
	// Violated reports a missed deadline.
	Violated bool
	// Migrated reports that the cluster rebalancer moved the request
	// (Task.Migrated), so the cluster can score the move at completion.
	Migrated bool
}

// outcomeOf snapshots a completed task's final accounting. Both capture
// modes derive their per-request records through it, so Tasks entries,
// Exemplars and Observer callbacks carry identical values.
func outcomeOf(t *Task) TaskOutcome {
	return TaskOutcome{
		ID:         t.ID,
		Model:      t.Key.Model(),
		Arrival:    t.Arrival,
		Completion: t.Completion,
		Isolated:   t.TrueIsolated(),
		NTT:        float64(t.Completion-t.Arrival) / float64(t.TrueIsolated()),
		Violated:   t.Violated(t.Completion),
		Migrated:   t.Migrated,
	}
}

// CheckOutcomeConservation verifies the outcome accounting of one run:
// every offered request must land in exactly one terminal class, so
// Offered == (Requests - Violations) + Violations + Rejected + LostWork
// + Dropped, where Requests - Violations is the SLO-met completion count
// behind Goodput. A Result with Offered == 0 predates the accounting (or
// is empty) and passes vacuously. The check catches silent metric drift
// as new outcome classes appear: a class added to the simulation but not
// to this identity fails every run that exercises it.
func CheckOutcomeConservation(r Result) error {
	if r.Offered == 0 {
		return nil
	}
	goodput := r.Requests - r.Violations
	accounted := goodput + r.Violations + r.Rejected + r.LostWork + r.Dropped
	if r.Offered != accounted {
		return fmt.Errorf(
			"sched: outcome classes do not conserve requests: offered %d != %d accounted (goodput %d + violations %d + rejected %d + lost %d + dropped %d)",
			r.Offered, accounted, goodput, r.Violations, r.Rejected, r.LostWork, r.Dropped)
	}
	return nil
}

// AverageResults averages the metric fields of per-seed results of the
// same scheduler, the paper's five-seed reporting protocol (§6.1).
// Scheduler is taken from the first result carrying a name. The integer
// counters (Preemptions, Requests) are rounded to the nearest integer,
// not truncated. PerModel holds every model of any input's breakdown,
// in name order, in one exactly sized allocation: a model's Requests is
// averaged over all the inputs (0 in one without the model) and rounded
// the same way, and its per-seed counts weight its ANTT and
// violation-rate means, summed in input order. PerModel stays nil when
// no input has a per-model breakdown.
// Timeline, Tasks and Exemplars are intentionally dropped: per-seed
// schedules have no meaningful average, so callers wanting them must read
// the individual per-seed Results.
//
// Every input is checked against CheckOutcomeConservation — a mismatch
// returns an error instead of silently averaging drifted metrics. The
// averaged output re-derives Offered from its own rounded classes so the
// identity survives the independent roundings.
func AverageResults(rs []Result) (Result, error) {
	return AverageResultsInto(rs, nil)
}

// AverageResultsInto is AverageResults with the averaged PerModel cut
// from slot when slot holds at least as many entries as the inputs have
// distinct models, capped at that count; otherwise, as with a nil slot,
// it is one new, exactly sized slice. PerModel stays nil when no input
// has a breakdown. The returned Result shares slot, so the caller hands
// each average a slot of its own.
func AverageResultsInto(rs []Result, slot []ModelMetrics) (Result, error) {
	if len(rs) == 0 {
		return Result{}, nil
	}
	avg := Result{}
	if n := distinctModels(rs); n > 0 {
		avg.PerModel = breakdownSlot(slot, n)[:0]
	}
	var meanLat, p50Lat, p95Lat, p99Lat, makespan float64
	for _, r := range rs {
		if err := CheckOutcomeConservation(r); err != nil {
			return Result{}, err
		}
		if avg.Scheduler == "" {
			avg.Scheduler = r.Scheduler
		}
		avg.ANTT += r.ANTT
		avg.ViolationRate += r.ViolationRate
		avg.Throughput += r.Throughput
		avg.Goodput += r.Goodput
		avg.Preemptions += r.Preemptions
		avg.Requests += r.Requests
		avg.Dropped += r.Dropped
		avg.Rejected += r.Rejected
		avg.Offered += r.Offered
		avg.Migrations += r.Migrations
		avg.MigrationWins += r.MigrationWins
		avg.MigrationLosses += r.MigrationLosses
		avg.Violations += r.Violations
		avg.LostWork += r.LostWork
		avg.Failovers += r.Failovers
		avg.Retries += r.Retries
		avg.Redirects += r.Redirects
		avg.ScaleUps += r.ScaleUps
		avg.ScaleDowns += r.ScaleDowns
		avg.EngineSeconds += r.EngineSeconds
		meanLat += float64(r.MeanLatency)
		p50Lat += float64(r.P50Latency)
		p95Lat += float64(r.P95Latency)
		p99Lat += float64(r.P99Latency)
		makespan += float64(r.Makespan)
		for _, m := range r.PerModel {
			i, found := slices.BinarySearchFunc(avg.PerModel, m, compareModels)
			if !found {
				avg.PerModel = slices.Insert(avg.PerModel, i, ModelMetrics{Model: m.Model})
			}
			agg := &avg.PerModel[i]
			agg.Requests += m.Requests
			// Weight per-seed means by their request counts.
			agg.ANTT += m.ANTT * float64(m.Requests)
			agg.ViolationRate += m.ViolationRate * float64(m.Requests)
		}
	}
	n := float64(len(rs))
	for i := range avg.PerModel {
		m := &avg.PerModel[i]
		if m.Requests > 0 {
			m.ANTT /= float64(m.Requests)
			m.ViolationRate /= float64(m.Requests)
		}
		m.Requests = int(math.Round(float64(m.Requests) / n))
	}
	avg.ANTT /= n
	avg.ViolationRate /= n
	avg.Throughput /= n
	avg.Goodput /= n
	avg.Preemptions = int(math.Round(float64(avg.Preemptions) / n))
	avg.Requests = int(math.Round(float64(avg.Requests) / n))
	avg.Dropped = int(math.Round(float64(avg.Dropped) / n))
	avg.Rejected = int(math.Round(float64(avg.Rejected) / n))
	avg.Migrations = int(math.Round(float64(avg.Migrations) / n))
	avg.MigrationWins = int(math.Round(float64(avg.MigrationWins) / n))
	// Derive losses instead of rounding them independently, so the
	// per-run invariant wins + losses == migrations survives averaging
	// (three independent roundings can disagree by one). Rounding is
	// monotone and wins <= migrations per run, so this never goes
	// negative.
	avg.MigrationLosses = avg.Migrations - avg.MigrationWins
	avg.Violations = int(math.Round(float64(avg.Violations) / n))
	avg.LostWork = int(math.Round(float64(avg.LostWork) / n))
	avg.Failovers = int(math.Round(float64(avg.Failovers) / n))
	avg.Retries = int(math.Round(float64(avg.Retries) / n))
	avg.Redirects = int(math.Round(float64(avg.Redirects) / n))
	avg.ScaleUps = int(math.Round(float64(avg.ScaleUps) / n))
	avg.ScaleDowns = int(math.Round(float64(avg.ScaleDowns) / n))
	avg.EngineSeconds /= n
	// Re-derive Offered from the rounded classes (only when the inputs
	// carried the accounting at all), so the conservation identity that
	// held per input also holds on the average despite each class
	// rounding independently.
	if avg.Offered > 0 {
		avg.Offered = avg.Requests + avg.Rejected + avg.LostWork + avg.Dropped
	}
	avg.MeanLatency = time.Duration(meanLat / n)
	avg.P50Latency = time.Duration(p50Lat / n)
	avg.P95Latency = time.Duration(p95Lat / n)
	avg.P99Latency = time.Duration(p99Lat / n)
	avg.Makespan = time.Duration(makespan / n)
	return avg, nil
}

// distinctModels counts the model names of rs' breakdowns, each name
// once, the size of AverageResults' breakdown. Each breakdown is in name
// order (Result.PerModel), so a binary search finds a name in an
// earlier one.
func distinctModels(rs []Result) int {
	n := 0
	for i, r := range rs {
	entries:
		for _, m := range r.PerModel {
			for _, prev := range rs[:i] {
				if _, seen := slices.BinarySearchFunc(prev.PerModel, m, compareModels); seen {
					continue entries
				}
			}
			n++
		}
	}
	return n
}

// SeedSpread summarizes per-seed variability of the two headline metrics:
// the population standard deviation of ANTT and violation rate across
// runs. Reported alongside five-seed averages to show result stability.
func SeedSpread(rs []Result) (anttSD, violSD float64) {
	if len(rs) < 2 {
		return 0, 0
	}
	antts := make([]float64, len(rs))
	viols := make([]float64, len(rs))
	for i, r := range rs {
		antts[i] = r.ANTT
		viols[i] = r.ViolationRate
	}
	return stats.StdDev(antts), stats.StdDev(viols)
}
