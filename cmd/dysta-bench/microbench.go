package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/core"
	"sparsedysta/internal/exp"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/traffic"
	"sparsedysta/internal/workload"
)

// This file is the perf-trajectory tooling behind the -json flag: it runs
// the hot-path micro-benchmarks (the engine under each scheduler, one
// predictor step, a parallel grid) through testing.Benchmark and writes
// the results to BENCH_<date>.json, so successive PRs can diff ns/op
// machine-readably instead of eyeballing `go test -bench` output.

// BenchRecord is one benchmark's machine-readable result.
type BenchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BenchReport is the file-level schema of BENCH_<date>.json.
type BenchReport struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []BenchRecord `json:"results"`
}

// microWorkload builds the shared AttNN pipeline and request stream
// (mirrors the fixture of the root bench_test.go micro-benchmarks). The
// eval store is returned too so benches with their own arrival process
// (ClusterAutoscale) can sample fresh streams from the same trace pool.
func microWorkload() (*trace.StatsSet, *trace.Store, []*workload.Request, error) {
	sc := workload.MultiAttNN()
	prof, eval, err := workload.BuildStores(sc, 30, 100, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	lut, err := trace.NewStatsSet(prof)
	if err != nil {
		return nil, nil, nil, err
	}
	reqs, err := workload.Generate(sc, eval, workload.GenConfig{
		Requests: 500, RatePerSec: 30, SLOMultiplier: 10, Seed: 1})
	if err != nil {
		return nil, nil, nil, err
	}
	return lut, eval, reqs, nil
}

// runMicroBenchmarks executes the hot-path suite and returns the records.
func runMicroBenchmarks() ([]BenchRecord, error) {
	lut, evalStore, reqs, err := microWorkload()
	if err != nil {
		return nil, err
	}
	est := sched.NewEstimator(lut)

	engineBench := func(mk func() sched.Scheduler) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Run(mk(), reqs, sched.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"EngineFCFS", engineBench(func() sched.Scheduler { return sched.NewFCFS() })},
		{"EngineSJF", engineBench(func() sched.Scheduler { return sched.NewSJF(est) })},
		{"EngineDysta", engineBench(func() sched.Scheduler { return core.NewDefault(lut) })},
		{"EngineDystaReference", func(b *testing.B) {
			// The pre-rearchitecture scoring path, kept as the baseline
			// the incremental path is measured against.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Run(core.NewDefault(lut), reqs,
					sched.Options{ReferencePick: true}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"EnginePlanaria", engineBench(func() sched.Scheduler { return sched.NewPlanaria(est) })},
		{"EngineOracle", engineBench(func() sched.Scheduler { return sched.NewOracle(core.DefaultConfig().Eta) })},
		{"EngineOverload", func(b *testing.B) {
			// The heap picks at depth: one engine at exactly 135% of its
			// capacity (ready queues hundreds deep) under Dysta, PREMA and
			// SDRM3 in turn. The stream is drawn at 40 req/s, then redrawn
			// at the rate offering exactly 1.35 engines of work.
			sc := workload.MultiAttNN()
			cfg := workload.GenConfig{Requests: 2000, RatePerSec: 40, SLOMultiplier: 10, Seed: 1}
			deep, err := workload.Generate(sc, evalStore, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var work time.Duration
			for _, r := range deep {
				work += r.Trace.Total()
			}
			cfg.RatePerSec *= 1.35 * deep[len(deep)-1].Arrival.Seconds() / work.Seconds()
			if deep, err = workload.Generate(sc, evalStore, cfg); err != nil {
				b.Fatal(err)
			}
			mks := []func() sched.Scheduler{
				func() sched.Scheduler { return core.NewDefault(lut) },
				func() sched.Scheduler { return sched.NewPREMA(est) },
				func() sched.Scheduler { return sched.NewSDRM3(est) },
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, mk := range mks {
					if _, err := sched.Run(mk(), deep, sched.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"ClusterDysta", func(b *testing.B) {
			// 4 engines behind sparsity-aware least-predicted-load
			// dispatch: the new-subsystem entry of the perf trajectory.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := cluster.NewLeastLoad("load", cluster.SparsityAwareLoad(lut, est)).
					WithCurve(cluster.SparsityAwareCurve(lut, est))
				if _, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) },
					reqs, cluster.Config{Engines: 4, Dispatch: d}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ClusterRoundRobin", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) },
					reqs, cluster.Config{Engines: 4, Dispatch: cluster.NewRoundRobin()}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ClusterSteal", func(b *testing.B) {
			// The migration hot path: stale signals + work stealing on
			// top of the ClusterDysta configuration, covered by the CI
			// bench-regression gate like every other Cluster* entry.
			load := cluster.SparsityAwareLoad(lut, est)
			curve := cluster.SparsityAwareCurve(lut, est)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := cluster.NewLeastLoad("load", load).WithCurve(curve)
				if _, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) },
					reqs, cluster.Config{
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
		}},
		{"ClusterChurn", func(b *testing.B) {
			// The fault-injection hot path: stale signals + churn with
			// failover, retries and redirects on top of the ClusterDysta
			// configuration (MTBF chosen so several engines die and
			// recover within the 500-request stream).
			load := cluster.SparsityAwareLoad(lut, est)
			curve := cluster.SparsityAwareCurve(lut, est)
			plan, err := cluster.GenChurn(4, time.Minute, 2*time.Second, 150*time.Millisecond, 29)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := cluster.NewLeastLoad("load", load).WithCurve(curve)
				if _, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) },
					reqs, cluster.Config{
						Engines:        4,
						Dispatch:       d,
						SignalInterval: 20 * time.Millisecond,
						Churn:          &plan,
						RetryMax:       4,
					}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ClusterAutoscale", func(b *testing.B) {
			// The autoscaling hot path: a bursty (MMPP) stream with the
			// SLO-derived policy cycling the live set — per-refresh
			// evaluation, drain/join transitions and in-service billing on
			// top of the ClusterDysta configuration. New entry, so the CI
			// bench gate picks it up once both compared files carry it.
			load := cluster.SparsityAwareLoad(lut, est)
			burstyReqs, err := workload.Generate(workload.MultiAttNN(), evalStore, workload.GenConfig{
				Requests: 500, RatePerSec: 66, SLOMultiplier: 10, Seed: 1,
				Process: traffic.Bursty(66, 8, 0.2, 300*time.Millisecond)})
			if err != nil {
				b.Fatal(err)
			}
			pol := exp.NewAutoscaler(burstyReqs, 1, 4, load)
			pol.Curve = cluster.SparsityAwareCurve(lut, est)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := cluster.NewLeastLoad("load", load).WithCurve(pol.Curve)
				if _, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) },
					burstyReqs, cluster.Config{
						Engines:        4,
						Dispatch:       d,
						SignalInterval: 5 * time.Millisecond,
						Autoscale:      pol,
					}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ClusterStream1M", func(b *testing.B) {
			// The streaming scale anchor: one million requests through 16
			// Dysta engines with lazy arrivals, bounded capture and the
			// heap picks — the configuration whose memory use
			// must stay independent of request count. The request slice is
			// never materialized; each iteration re-opens the generator.
			// 400 req/s (~83% of the 16-engine capacity) keeps queues in
			// steady state: at or past saturation they grow with the
			// horizon and no capture mode can bound that.
			load := cluster.SparsityAwareLoad(lut, est)
			curve := cluster.SparsityAwareCurve(lut, est)
			cfg := workload.GenConfig{
				Requests: 1_000_000, RatePerSec: 400, SLOMultiplier: 10, Seed: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := workload.NewStream(workload.MultiAttNN(), evalStore, cfg)
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
		}},
		{"SignalRefresh", func(b *testing.B) {
			// One SignalBoard.Refresh over 4 engines holding the full
			// 500-request stream: the per-refresh cost every arrival-loop
			// observation pays when the interval elapses. With the engines
			// bound to the run's estimator this is the O(1) incremental
			// sum per engine; the pre-incremental board paid an O(queue)
			// scan here.
			load := cluster.SparsityAwareLoad(lut, est)
			curve := cluster.SparsityAwareCurve(lut, est)
			engines := make([]*sched.Engine, 4)
			for j := range engines {
				engines[j] = sched.NewEngine(core.NewDefault(lut), sched.Options{
					BacklogEstimator: load, BacklogCurve: curve})
			}
			for j, r := range reqs {
				if err := engines[j%len(engines)].Inject(r, r.Arrival); err != nil {
					b.Fatal(err)
				}
			}
			board := cluster.NewSignalBoard(engines, 0, load)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				board.Refresh(time.Duration(i))
			}
		}},
		{"RebalanceViews", func(b *testing.B) {
			// The rebalancer's per-round cost — live view construction
			// plus Steal planning — via the steal configuration at a
			// 100µs interval: an order of magnitude more rounds than
			// ClusterSteal. Every round fills the O(1) view fields of all
			// engines; candidate lists are built, into reused scratch,
			// only in rounds where an idle thief faces a longer backlog.
			load := cluster.SparsityAwareLoad(lut, est)
			curve := cluster.SparsityAwareCurve(lut, est)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := cluster.NewLeastLoad("load", load).WithCurve(curve)
				if _, err := cluster.Run(func(int) sched.Scheduler { return core.NewDefault(lut) },
					reqs, cluster.Config{
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
		}},
		{"PredictorStep", func(b *testing.B) {
			st := lut.MustLookup(trace.Key{Model: "bert", Pattern: sparsity.Dense})
			p := core.NewPredictor(core.DefaultConfig(), st)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				layer := i % (st.NumLayers() - 1)
				p.Observe(layer, 0.9)
				_ = p.Remaining(layer + 1)
			}
		}},
		{"RunPointParallel", func(b *testing.B) {
			opts := exp.QuickOptions()
			p, err := exp.NewPipeline(workload.MultiAttNN(), opts, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.RunPoint(exp.StandardScheds(), 30, 10, opts); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	records := make([]BenchRecord, 0, len(benches))
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		records = append(records, BenchRecord{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Printf("%-22s %12.0f ns/op %10d B/op %8d allocs/op\n",
			bench.name, records[len(records)-1].NsPerOp,
			r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	return records, nil
}

// writeBenchJSON runs the suite and writes BENCH_<date>.json into dir.
func writeBenchJSON(dir string) error {
	records, err := runMicroBenchmarks()
	if err != nil {
		return err
	}
	report := BenchReport{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    records,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s/BENCH_%s.json", dir, report.Date)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
