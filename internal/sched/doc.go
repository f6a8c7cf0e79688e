// Package sched implements Phase 2 of the paper's methodology: a
// discrete-event, layer-granularity preemptive scheduling engine for a
// single time-shared accelerator (§4.2.2: "execution is performed in a
// per-layer or per-layer-block manner ... whenever the execution of one
// layer completes, the scheduler is invoked"), the scheduling metrics
// (ANTT, SLO violation rate, STP — §6.1), and the status-quo baseline
// schedulers the paper compares against (§6.1).
//
// # Determinism contracts
//
// Everything above this package (internal/cluster, internal/exp) depends
// on a simulation being a pure function of its inputs. The engine
// guarantees:
//
//   - Virtual-clock ordering. The engine clock advances only in Step,
//     one scheduling decision at a time; NextEvent never mutates state,
//     so an orchestrator can totally order N engines' events before
//     committing any of them. Requests must be injected before the
//     clock passes their arrival; a late injection delays delivery but
//     never rewrites history.
//   - Tie-break totality. Every scheduler's selection rule is a strict
//     lexicographic minimum (score, then task ID), so the pick is
//     independent of ready-queue iteration order — the queue itself
//     (swap-removal, heap internals) carries no semantic order.
//   - Incremental equivalence. IncrementalScheduler is the engine's one
//     production pick, and it must pick the identical task the
//     reference PickNext would. FCFS and SJF pick a heap minimum; the
//     other heap picks (PREMA, SDRM3, Planaria, Oracle, and Dysta in
//     internal/core) key their heaps by provable score bounds or
//     candidacy partitions and re-score every candidate the bounds
//     cannot rule out with the reference arithmetic, so they are exact
//     by construction, with no tolerance. No pick scans the ready
//     queue. Options.ReferencePick forces the reference path, and the
//     equivalence tests in this package, internal/core and
//     internal/exp prove bit-identical schedules, including on queues
//     hundreds deep.
//   - Extraction integrity. Engine.Extract / Engine.Adopt (request
//     migration) only move tasks that have executed no layer, through
//     the scheduler's TaskExtractor hook, so scheduler state and the
//     task's ground-truth accounting (TrueIsolated/TrueRemaining, kept
//     in reference units) stay exact across engines. A run with no
//     extractions is bit-identical to one on an engine without the
//     migration surfaces.
//
// These contracts are restated operationally in DESIGN.md §7 (hot-path
// architecture) and §9 (migration); the per-knob neutral-settings
// bit-identity rules live with internal/cluster and internal/exp.
package sched
