// Package sparsedysta's root benchmark suite: one testing.B benchmark per
// paper table and figure (regenerating the artefact end to end at the
// quick protocol), plus micro-benchmarks of the core machinery. The
// experiment index lives in DESIGN.md §4; `go run ./cmd/dysta-bench` is
// the interactive front end with the paper-scale protocol.
package sparsedysta

import (
	"testing"
	"time"

	"sparsedysta/internal/accel"
	"sparsedysta/internal/cluster"
	"sparsedysta/internal/core"
	"sparsedysta/internal/exp"
	"sparsedysta/internal/models"
	"sparsedysta/internal/rng"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/traffic"
	"sparsedysta/internal/workload"
)

// benchOpts is the protocol used by the per-experiment benchmarks: small
// enough that the full `go test -bench=.` pass stays in minutes.
func benchOpts() exp.Options {
	return exp.Options{
		Seeds:          1,
		Requests:       200,
		ProfileSamples: 30,
		EvalSamples:    100,
		DatasetSamples: 400,
	}
}

// runExp executes one registered experiment b.N times.
func runExp(b *testing.B, id string) {
	b.Helper()
	runner, err := exp.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artefact (DESIGN.md §4).

func BenchmarkFig2(b *testing.B)   { runExp(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { runExp(b, "fig3") }
func BenchmarkTable2(b *testing.B) { runExp(b, "table2") }
func BenchmarkFig4(b *testing.B)   { runExp(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { runExp(b, "fig5") }
func BenchmarkFig9(b *testing.B)   { runExp(b, "fig9") }
func BenchmarkTable4(b *testing.B) { runExp(b, "table4") }
func BenchmarkTable5(b *testing.B) { runExp(b, "table5") }
func BenchmarkFig12(b *testing.B)  { runExp(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExp(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { runExp(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExp(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { runExp(b, "fig16") }
func BenchmarkTable6(b *testing.B) { runExp(b, "table6") }

// Micro-benchmarks of the machinery behind the experiments.

// benchWorkload builds a reusable AttNN pipeline + request stream once.
func benchWorkload(b *testing.B) (*trace.StatsSet, []*workload.Request) {
	b.Helper()
	sc := workload.MultiAttNN()
	prof, eval, err := workload.BuildStores(sc, 30, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	lut, err := trace.NewStatsSet(prof)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.Generate(sc, eval, workload.GenConfig{
		Requests: 500, RatePerSec: 30, SLOMultiplier: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return lut, reqs
}

// BenchmarkEngineSJF measures the discrete-event engine's end-to-end
// throughput under a cheap scheduler (500 requests per iteration).
func BenchmarkEngineSJF(b *testing.B) {
	lut, reqs := benchWorkload(b)
	est := sched.NewEstimator(lut)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(sched.NewSJF(est), reqs, sched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDysta measures the engine under the full Dysta scheduler
// (per-layer predictor updates + full queue re-scoring).
func BenchmarkEngineDysta(b *testing.B) {
	lut, reqs := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(core.NewDefault(lut), reqs, sched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePlanaria measures the engine under Planaria's heap pick
// (least-slack walk over the feasible heap, hopeless drain heap).
func BenchmarkEnginePlanaria(b *testing.B) {
	lut, reqs := benchWorkload(b)
	est := sched.NewEstimator(lut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(sched.NewPlanaria(est), reqs, sched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineOracle measures the engine under Oracle's heap pick
// (Dysta's bound-pruned walk over ground-truth remaining times).
func BenchmarkEngineOracle(b *testing.B) {
	lut, reqs := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(core.NewOracle(lut), reqs, sched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineOverload measures the heap picks at depth: one engine
// at exactly 135% of its capacity, so ready queues grow hundreds deep,
// running Dysta, PREMA and SDRM3 in turn over the same 2000-request
// stream (the root-suite counterpart of the benchmark's overload-pick
// workload).
func BenchmarkEngineOverload(b *testing.B) {
	sc := workload.MultiAttNN()
	prof, eval, err := workload.BuildStores(sc, 30, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	lut, err := trace.NewStatsSet(prof)
	if err != nil {
		b.Fatal(err)
	}
	// Draw at 40 req/s, then redraw at the rate offering exactly 1.35
	// engines of work: the same models and traces, rescaled arrivals.
	cfg := workload.GenConfig{Requests: 2000, RatePerSec: 40, SLOMultiplier: 10, Seed: 1}
	reqs, err := workload.Generate(sc, eval, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var work time.Duration
	for _, r := range reqs {
		work += r.Trace.Total()
	}
	cfg.RatePerSec *= 1.35 * reqs[len(reqs)-1].Arrival.Seconds() / work.Seconds()
	if reqs, err = workload.Generate(sc, eval, cfg); err != nil {
		b.Fatal(err)
	}
	est := sched.NewEstimator(lut)
	mks := []func() sched.Scheduler{
		func() sched.Scheduler { return core.NewDefault(lut) },
		func() sched.Scheduler { return sched.NewPREMA(est) },
		func() sched.Scheduler { return sched.NewSDRM3(est) },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mk := range mks {
			if _, err := sched.Run(mk(), reqs, sched.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkClusterDysta measures the multi-engine cluster simulation: the
// 500-request stream dispatched across 4 engines running Dysta behind the
// sparsity-aware least-predicted-load policy.
func BenchmarkClusterDysta(b *testing.B) {
	lut, reqs := benchWorkload(b)
	est := sched.NewEstimator(lut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := cluster.NewLeastLoad("load", cluster.SparsityAwareLoad(lut, est)).
			WithCurve(cluster.SparsityAwareCurve(lut, est))
		if _, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) }, reqs,
			cluster.Config{Engines: 4, Dispatch: d}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRoundRobin is the dispatch-cost baseline for
// BenchmarkClusterDysta: same engines, O(1) routing.
func BenchmarkClusterRoundRobin(b *testing.B) {
	lut, reqs := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) }, reqs,
			cluster.Config{Engines: 4, Dispatch: cluster.NewRoundRobin()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSteal measures the migration hot path: the 500-request
// stream on 4 engines behind stale load-aware dispatch with work
// stealing rebalancing every millisecond — the configuration that
// exercises Extract/Adopt, live view construction, and the drain-phase
// rebalance rounds on top of BenchmarkClusterDysta's baseline.
func BenchmarkClusterSteal(b *testing.B) {
	lut, reqs := benchWorkload(b)
	est := sched.NewEstimator(lut)
	load := cluster.SparsityAwareLoad(lut, est)
	curve := cluster.SparsityAwareCurve(lut, est)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := cluster.NewLeastLoad("load", load).WithCurve(curve)
		if _, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) }, reqs,
			cluster.Config{
				Engines:           4,
				Dispatch:          d,
				SignalInterval:    20 * time.Millisecond,
				Rebalance:         cluster.Steal{Load: load, Curve: curve},
				RebalanceInterval: time.Millisecond,
				MigrationCost:     200 * time.Microsecond,
			}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterChurn measures the fault-injection hot path: the
// 500-request stream on 4 engines behind stale load-aware dispatch
// while engines fail and recover on a 2s-MTBF schedule — the
// configuration that exercises Crash/Restart, failover re-dispatch,
// redirect scans and sealed-incarnation aggregation on top of
// BenchmarkClusterDysta's baseline.
func BenchmarkClusterChurn(b *testing.B) {
	lut, reqs := benchWorkload(b)
	est := sched.NewEstimator(lut)
	load := cluster.SparsityAwareLoad(lut, est)
	plan, err := cluster.GenChurn(4, time.Minute, 2*time.Second, 150*time.Millisecond, 29)
	if err != nil {
		b.Fatal(err)
	}
	curve := cluster.SparsityAwareCurve(lut, est)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := cluster.NewLeastLoad("load", load).WithCurve(curve)
		if _, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) }, reqs,
			cluster.Config{
				Engines:        4,
				Dispatch:       d,
				SignalInterval: 20 * time.Millisecond,
				Churn:          &plan,
				RetryMax:       4,
			}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterAutoscale measures the autoscaling hot path: a bursty
// (MMPP) 500-request stream on 4 engines behind stale load-aware
// dispatch with the SLO-derived autoscaler cycling the live set — the
// configuration that exercises per-refresh policy evaluation, drainNow/
// joinNow transitions and in-service span accounting on top of
// BenchmarkClusterDysta's baseline.
func BenchmarkClusterAutoscale(b *testing.B) {
	lut, _ := benchWorkload(b)
	est := sched.NewEstimator(lut)
	load := cluster.SparsityAwareLoad(lut, est)
	sc := workload.MultiAttNN()
	_, eval, err := workload.BuildStores(sc, 30, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.Generate(sc, eval, workload.GenConfig{
		Requests: 500, RatePerSec: 66, SLOMultiplier: 10, Seed: 1,
		Process: traffic.Bursty(66, 8, 0.2, 300*time.Millisecond)})
	if err != nil {
		b.Fatal(err)
	}
	pol := exp.NewAutoscaler(reqs, 1, 4, load)
	pol.Curve = cluster.SparsityAwareCurve(lut, est)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := cluster.NewLeastLoad("load", load).WithCurve(pol.Curve)
		if _, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) }, reqs,
			cluster.Config{
				Engines:        4,
				Dispatch:       d,
				SignalInterval: 5 * time.Millisecond,
				Autoscale:      pol,
			}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterStream1M measures the streaming scale anchor: one
// million requests through 16 Dysta engines with lazy arrivals
// (workload.NewStream), bounded capture and the heap-backed pick path.
// The request slice is never materialized, so resident memory stays
// independent of request count; allocs/op is the number this benchmark
// exists to pin. 400 req/s (~83% of the 16-engine capacity) keeps the
// queues in steady state: at or past saturation they grow with the
// horizon and no capture mode can bound that.
func BenchmarkClusterStream1M(b *testing.B) {
	lut, _ := benchWorkload(b)
	est := sched.NewEstimator(lut)
	load := cluster.SparsityAwareLoad(lut, est)
	sc := workload.MultiAttNN()
	_, eval, err := workload.BuildStores(sc, 30, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.GenConfig{Requests: 1_000_000, RatePerSec: 400, SLOMultiplier: 10, Seed: 1}
	curve := cluster.SparsityAwareCurve(lut, est)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := workload.NewStream(sc, eval, cfg)
		if err != nil {
			b.Fatal(err)
		}
		d := cluster.NewLeastLoad("load", load).WithCurve(curve)
		res, err := cluster.RunStream(func(int) sched.Scheduler { return core.NewDefault(lut) },
			src, cluster.Config{
				Engines:  16,
				Dispatch: d,
				Sched:    sched.Options{BoundedCapture: true},
			})
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests != cfg.Requests {
			b.Fatalf("streamed %d of %d requests", res.Requests, cfg.Requests)
		}
	}
}

// BenchmarkSignalRefresh measures one SignalBoard.Refresh over 4 engines
// holding the full 500-request stream: the per-refresh cost every
// arrival-loop observation pays when the interval elapses. With the
// engines bound to the run's estimator this is the O(1) incremental sum
// per engine; the pre-incremental board paid an O(queue) scan here.
func BenchmarkSignalRefresh(b *testing.B) {
	lut, reqs := benchWorkload(b)
	est := sched.NewEstimator(lut)
	load := cluster.SparsityAwareLoad(lut, est)
	curve := cluster.SparsityAwareCurve(lut, est)
	engines := make([]*sched.Engine, 4)
	for i := range engines {
		engines[i] = sched.NewEngine(core.NewDefault(lut), sched.Options{
			BacklogEstimator: load, BacklogCurve: curve})
	}
	for i, r := range reqs {
		if err := engines[i%len(engines)].Inject(r, r.Arrival); err != nil {
			b.Fatal(err)
		}
	}
	board := cluster.NewSignalBoard(engines, 0, load)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		board.Refresh(time.Duration(i))
	}
}

// BenchmarkRebalanceViews measures the rebalancer's per-round cost —
// live view construction plus Steal planning — by running the steal
// configuration at a 100µs interval, an order of magnitude more rounds
// than BenchmarkClusterSteal. Every round fills the O(1) view fields of
// all engines; candidate lists are built, into reused scratch, only in
// rounds where an idle thief faces a longer backlog.
func BenchmarkRebalanceViews(b *testing.B) {
	lut, reqs := benchWorkload(b)
	est := sched.NewEstimator(lut)
	load := cluster.SparsityAwareLoad(lut, est)
	curve := cluster.SparsityAwareCurve(lut, est)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := cluster.NewLeastLoad("load", load).WithCurve(curve)
		if _, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) }, reqs,
			cluster.Config{
				Engines:           4,
				Dispatch:          d,
				SignalInterval:    20 * time.Millisecond,
				Rebalance:         cluster.Steal{Load: load, Curve: curve},
				RebalanceInterval: 100 * time.Microsecond,
				MigrationCost:     200 * time.Microsecond,
			}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleEngines regenerates the scale-engines experiment.
func BenchmarkScaleEngines(b *testing.B) { runExp(b, "scale-engines") }

// BenchmarkAutoscale regenerates the autoscale frontier experiment.
func BenchmarkAutoscale(b *testing.B) { runExp(b, "autoscale") }

// BenchmarkPredictor measures one Observe+Remaining predictor step.
func BenchmarkPredictor(b *testing.B) {
	sc := workload.MultiAttNN()
	prof, _, err := workload.BuildStores(sc, 30, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	lut, err := trace.NewStatsSet(prof)
	if err != nil {
		b.Fatal(err)
	}
	st := lut.MustLookup(trace.NewKey("bert", sparsity.Dense))
	p := core.NewPredictor(core.DefaultConfig(), st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer := i % (st.NumLayers() - 1)
		p.Observe(layer, 0.9)
		_ = p.Remaining(layer + 1)
	}
}

// BenchmarkTraceBuild measures Phase 1 throughput: hardware-simulating
// one BERT sample (12 transformer blocks).
func BenchmarkTraceBuild(b *testing.B) {
	m := models.BERTBase()
	sc := workload.MultiAttNN()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Build(sc.Accel, trace.BuildConfig{
			Model: m, Samples: 1, Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaskGenerate measures weight-mask generation for a
// ResNet-50-scale convolution.
func BenchmarkMaskGenerate(b *testing.B) {
	r := rng.New(1)
	cfg := sparsity.MaskConfig{Cin: 512, Cout: 512, KH: 3, KW: 3, Rate: 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparsity.Generate(r, sparsity.RandomPointwise, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGenerate measures request-stream sampling.
func BenchmarkWorkloadGenerate(b *testing.B) {
	sc := workload.MultiAttNN()
	_, eval, err := workload.BuildStores(sc, 10, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(sc, eval, workload.GenConfig{
			Requests: 1000, RatePerSec: 30, SLOMultiplier: 10, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayerLatency measures one analytical Eyeriss-V2 layer
// evaluation.
func BenchmarkLayerLatency(b *testing.B) {
	sc := workload.MultiCNN()
	l := models.ResNet50().Layers[10]
	sp := accel.LayerSparsity{
		Pattern:            sparsity.RandomPointwise,
		WeightRate:         0.8,
		ActivationSparsity: 0.45,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.Accel.LayerLatency(&l, sp)
	}
}

// Ablation benches (DESIGN.md §5 design-choice studies).

func BenchmarkAblationBeta(b *testing.B)     { runExp(b, "ablation-beta") }
func BenchmarkAblationEta(b *testing.B)      { runExp(b, "ablation-eta") }
func BenchmarkAblationStrategy(b *testing.B) { runExp(b, "ablation-strategy") }
func BenchmarkAblationPenalty(b *testing.B)  { runExp(b, "ablation-penalty") }
func BenchmarkAblationDemotion(b *testing.B) { runExp(b, "ablation-demotion") }
func BenchmarkAblationOverhead(b *testing.B) { runExp(b, "ablation-overhead") }
func BenchmarkAblationFIFO(b *testing.B)     { runExp(b, "ablation-fifo") }
func BenchmarkAblationGLB(b *testing.B)      { runExp(b, "ablation-glb") }
