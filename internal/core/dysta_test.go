package core

import (
	"testing"
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// synthLUT builds a StatsSet whose averages equal the given traces.
func synthLUT(t *testing.T, entries map[trace.Key][]trace.SampleTrace) *trace.StatsSet {
	t.Helper()
	store := trace.NewStore()
	for k, trs := range entries {
		store.Add(k, trs)
	}
	set, err := trace.NewStatsSet(store)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// uniformTrace builds a trace with equal per-layer latency and sparsity.
func uniformTrace(layerLat time.Duration, layers int, sp float64) trace.SampleTrace {
	tr := trace.SampleTrace{
		LayerLatency:  make([]time.Duration, layers),
		LayerSparsity: make([]float64, layers),
	}
	for i := range tr.LayerLatency {
		tr.LayerLatency[i] = layerLat
		tr.LayerSparsity[i] = sp
	}
	return tr
}

func req(id int, k trace.Key, tr trace.SampleTrace, arrival time.Duration, sloMult float64) *workload.Request {
	tr.Key = k
	return &workload.Request{
		ID: id, Trace: &tr, Arrival: arrival,
		SLO: time.Duration(float64(tr.Total()) * sloMult),
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Beta = 7
	New(cfg, nil)
}

func TestNames(t *testing.T) {
	lut := synthLUT(t, map[trace.Key][]trace.SampleTrace{})
	if got := NewDefault(lut).Name(); got != "Dysta" {
		t.Errorf("Name = %q", got)
	}
	if got := NewWithoutSparse(lut).Name(); got != "Dysta-w/o-sparse" {
		t.Errorf("ablation Name = %q", got)
	}
	if got := NewOracle(lut).Name(); got != "Oracle" {
		t.Errorf("oracle Name = %q", got)
	}
}

// TestOracleEtaShiftsToDeadline: a short request with a loose deadline
// and a long one with no slack to spare arrive together. At Eta 1 the
// Oracle's score is the deadline (EDF), so the urgent long request runs
// first; at Eta 0 it is the true remaining time (SJF), so the short one
// does.
func TestOracleEtaShiftsToDeadline(t *testing.T) {
	kShort := trace.NewKey("short", sparsity.Dense)
	kLong := trace.NewKey("long", sparsity.Dense)
	shortTr := uniformTrace(time.Millisecond, 2, 0.5)
	longTr := uniformTrace(20*time.Millisecond, 5, 0.5)
	lut := synthLUT(t, map[trace.Key][]trace.SampleTrace{kShort: {shortTr}, kLong: {longTr}})
	reqs := []*workload.Request{req(0, kShort, shortTr, 0, 10000), req(1, kLong, longTr, 0, 1)}
	firstDone := func(eta float64) int {
		cfg := NewOracle(lut).Config()
		cfg.Eta = eta
		res, err := sched.Run(oracleWith(cfg, lut), reqs, sched.Options{RecordTasks: true})
		if err != nil {
			t.Fatal(err)
		}
		first := res.Tasks[0]
		for _, o := range res.Tasks[1:] {
			if o.Completion < first.Completion {
				first = o
			}
		}
		return first.ID
	}
	if got := firstDone(1); got != 1 {
		t.Errorf("Eta 1 finished request %d first, want the urgent long request 1", got)
	}
	if got := firstDone(0); got != 0 {
		t.Errorf("Eta 0 finished request %d first, want the short request 0", got)
	}
}

// TestStaticScoreOrdering checks Alg. 1: with beta between 0 and 1, a
// short job with a loose SLO and a long job with a tight SLO trade places
// as beta moves.
func TestStaticScoreOrdering(t *testing.T) {
	kShort := trace.NewKey("short", sparsity.Dense)
	kLong := trace.NewKey("long", sparsity.Dense)
	shortTr := uniformTrace(time.Millisecond, 2, 0.5)   // 2ms isolated
	longTr := uniformTrace(10*time.Millisecond, 5, 0.5) // 50ms isolated
	lut := synthLUT(t, map[trace.Key][]trace.SampleTrace{
		kShort: {shortTr}, kLong: {longTr},
	})
	// Short job, huge slack; long job, nearly no slack.
	shortReq := req(0, kShort, shortTr, 0, 1000)
	longReq := req(1, kLong, longTr, 0, 1.01)

	// Behavioural check: beta=0 (pure SJF) runs the short job first;
	// beta=1 (pure slack) runs the tight-deadline long job first.
	runOrder := func(beta float64) (shortFirst bool) {
		cfg := DefaultConfig().WithoutSparse()
		cfg.Beta = beta
		d := New(cfg, lut)
		res, err := sched.Run(d, []*workload.Request{shortReq, longReq}, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// If the short job ran first its turnaround is its isolated 2ms
		// (NTT 1); otherwise it waited 50ms (NTT 26). ANTT separates the
		// two orders decisively.
		return res.ANTT < 5
	}
	if !runOrder(0) {
		t.Error("beta=0 did not run the short job first")
	}
	if runOrder(1) {
		t.Error("beta=1 did not prioritize the tight-deadline job")
	}
}

// TestDynamicRefinement checks Alg. 2+3 end to end: two requests of the
// same model, one truly fast (sparser than average) and one truly slow.
// After one layer of each, sparsity-aware Dysta finishes the truly fast
// one first, while the static ablation cannot tell them apart.
func TestDynamicRefinement(t *testing.T) {
	k := trace.NewKey("m", sparsity.Dense)
	// Profiling set with sparsity-latency variation so the LUT learns the
	// slope: 10ms/layer at s=0.5 and 6ms/layer at s=0.7 (slope -20ms per
	// unit sparsity; average 8ms at s=0.6).
	lut := synthLUT(t, map[trace.Key][]trace.SampleTrace{
		k: {uniformTrace(10*time.Millisecond, 6, 0.5), uniformTrace(6*time.Millisecond, 6, 0.7)},
	})
	fast := uniformTrace(4*time.Millisecond, 6, 0.8)  // sparser => faster
	slow := uniformTrace(16*time.Millisecond, 6, 0.2) // denser => slower
	fast.Key, slow.Key = k, k
	// Arrive together with identical absolute SLOs (as in the benchmark,
	// SLOs are per task type, not per sample). The slow job gets the
	// lower ID so that a scheduler without sparsity information (which
	// sees two identical profiles and tie-breaks on ID) runs it first —
	// only monitored sparsity can reveal the better order.
	slowReq := &workload.Request{ID: 0, Trace: &slow, SLO: 5 * time.Second}
	fastReq := &workload.Request{ID: 1, Trace: &fast, SLO: 5 * time.Second}

	cfg := DefaultConfig()
	cfg.Eta = 0 // isolate the SJF component
	res, err := sched.Run(New(cfg, lut), []*workload.Request{slowReq, fastReq}, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resAblate, err := sched.Run(NewWithoutSparse(lut), []*workload.Request{slowReq, fastReq}, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The ablation runs the slow job to completion first (ANTT 3.0);
	// sparsity-aware Dysta observes the slow job's first layer, predicts
	// it is the longer one, and switches (ANTT ~1.46).
	if res.ANTT >= resAblate.ANTT {
		t.Errorf("sparsity-aware ANTT %.3f not below ablation %.3f", res.ANTT, resAblate.ANTT)
	}
	if res.Preemptions == 0 {
		t.Error("dynamic level never acted on the monitored sparsity")
	}
}

// TestPenaltyReducesPreemptions checks the Alg. 2 line 10 term: raising
// the penalty weight must not increase preemption count.
func TestPenaltyReducesPreemptions(t *testing.T) {
	sc := workload.MultiAttNN()
	prof, eval, err := workload.BuildStores(sc, 30, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	lut, err := trace.NewStatsSet(prof)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(sc, eval, workload.GenConfig{
		Requests: 200, RatePerSec: 35, SLOMultiplier: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func(pw float64) int {
		cfg := DefaultConfig()
		cfg.PenaltyWeight = pw
		res, err := sched.Run(New(cfg, lut), reqs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Preemptions
	}
	low, high := run(0), run(500)
	// The penalty discourages switching away from the recently executed
	// request; a strong weight must not inflate preemptions (small-count
	// noise tolerance of 5%).
	if float64(high) > float64(low)*1.05 {
		t.Errorf("penalty weight 500 produced more preemptions (%d) than 0 (%d)", high, low)
	}
}

// TestDystaEndToEnd runs the full multi-AttNN pipeline and checks the
// paper's headline ordering (Table 5 shape): Dysta matches or beats SJF on
// ANTT while cutting violations, and beats the static ablation on ANTT.
func TestDystaEndToEnd(t *testing.T) {
	sc := workload.MultiAttNN()
	prof, eval, err := workload.BuildStores(sc, 50, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	lut, err := trace.NewStatsSet(prof)
	if err != nil {
		t.Fatal(err)
	}
	est := sched.NewEstimator(lut)
	reqs, err := workload.Generate(sc, eval, workload.GenConfig{
		Requests: 400, RatePerSec: 30, SLOMultiplier: 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	run := func(s sched.Scheduler) sched.Result {
		res, err := sched.Run(s, reqs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dysta := run(NewDefault(lut))
	sjf := run(sched.NewSJF(est))
	fcfs := run(sched.NewFCFS())

	if dysta.ANTT > sjf.ANTT*1.10 {
		t.Errorf("Dysta ANTT %.3f more than 10%% above SJF %.3f", dysta.ANTT, sjf.ANTT)
	}
	if dysta.ViolationRate > sjf.ViolationRate+1e-9 {
		t.Errorf("Dysta violations %.3f above SJF %.3f", dysta.ViolationRate, sjf.ViolationRate)
	}
	if dysta.ANTT >= fcfs.ANTT {
		t.Errorf("Dysta ANTT %.3f not below FCFS %.3f", dysta.ANTT, fcfs.ANTT)
	}
}

func TestScoreForUnknownTask(t *testing.T) {
	lut := synthLUT(t, map[trace.Key][]trace.SampleTrace{})
	d := NewDefault(lut)
	// A task the scheduler never saw must sort last, not crash.
	unknown := &sched.Task{ID: 99}
	if sc := d.score(unknown, 0, 1); sc < 1e17 {
		t.Errorf("unknown task scored %v", sc)
	}
}
