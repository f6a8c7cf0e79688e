// Package exp is the experiment harness of the reproduction: one runner
// per table and figure of the paper (see DESIGN.md §4 for the index and
// docs/EXPERIMENTS.md for the full catalog with CLI invocations), each
// regenerating the corresponding rows or series on the Go substrate.
// cmd/dysta-bench is the CLI front end; bench_test.go wires each runner
// into a testing.B benchmark.
//
// # Determinism contracts
//
// Every grid runs through one path, runGrid, whose cells fan out over a
// worker pool; RunGrid, RunPoint and table5 read its averages and
// per-seed results. The whole harness promises bit-identical output
// regardless of parallelism:
//
//   - Every stochastic input of a simulation cell derives from its seed
//     index alone (cellSeed), never from scheduling order, worker
//     identity, or the wall clock; workers write preallocated disjoint
//     result slots and the averages read them in deterministic order.
//     A grid must match cells run one by one, each on a new worker, in
//     seed order (the test-side RunSeeds oracle) byte for byte —
//     runner_test.go enforces it, also for migrating cluster cells. A
//     worker re-arms one engine for its direct cells and reruns each
//     spec's emptied scheduler (gridWorker), so a cell's storage
//     depends on the cells its worker ran before; its result must not,
//     and the same tests cover it.
//   - Neutral-knob bit-identity: Options at neutral cluster settings
//     (Engines <= 1 with homogeneous specs, SignalInterval 0, Admission
//     none, Rebalance none or RebalanceInterval 0) produce output
//     byte-identical to the plain single-path run, so turning a knob's
//     dial to zero is always a true control. The option-level
//     equivalence tests pin each knob.
//   - Float accumulation happens in sorted, explicit orders (see e.g.
//     sched.NewEstimator), so results are reproducible across processes
//     and machines, not just within a run.
package exp
