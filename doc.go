// Package repro is a from-scratch Go reproduction of Holland, Angelino,
// Wald and Seltzer, "Flash Caching on the Storage Client" (USENIX ATC
// 2013).
//
// The public API lives in repro/flashsim, whose Example functions go test
// runs and checks; executables live under cmd/ (flashsim, tracegen,
// experiments). The root package exists to host the repository-level
// benchmark suite (bench_test.go), which regenerates every table and
// figure of the paper's evaluation in reduced form.
//
// # Sweep runner
//
// The paper's evaluation is a grid of independent simulation points —
// every point builds its own engine, hosts and filer, and shares no
// mutable state with its neighbours. The repository exploits that
// independence with one worker pool under two callers:
//
//   - internal/runner/pool: a bounded worker pool with a determinism
//     contract — results collected by index, completions delivered in
//     index order, lowest-index error wins.
//   - flashsim.RunBatch / flashsim.RunGrid / flashsim.RunScenarioBatch:
//     the public batch API over plain []Config.
//   - internal/experiments: each experiment declares its sweep as a grid
//     of labeled points with per-point collectors and runs it on the pool.
//
// Experiment output — figures, tables, even -v progress lines — is
// therefore byte-identical at any -parallel setting; only wall-clock time
// changes.
//
// # Scenario engine
//
// The paper measures steady state only; the scenario engine
// (internal/scenario, flashsim.RunScenario) scripts the transients it set
// aside. A scenario is an ordered list of phases — each with a duration
// (blocks, working-set multiples, or simulated time), workload overrides
// (write mix, locality, working-set shift, sharing, thread count) and
// boundary events (host crash with the §7.8 recovery path, cache flush,
// host leave/join churn) — paired with a time-resolved telemetry probe
// (stats.TimeSeries, CSV/NDJSON exportable) sampled at epoch barriers
// forced onto the sampling grid. Every scenario runs on the sharded
// cluster (Config.Shards 0 means one shard). Six built-ins ship (warmup,
// burst, ws-shift, crash-recovery, filer-crash, churn), scenarios load
// from JSON, cmd/flashsim runs them via -scenario, and the ext-scenario
// experiment measures warmup and crash-recovery transients against flash
// size. Runs are byte-deterministic and golden-hash locked like the rest
// of the simulator.
//
// # Allocation-free event core
//
// The engine (internal/sim) queues events on a hand-rolled indexed 4-ary
// min-heap over event structs — no interface boxing, no per-push
// allocation — and offers arg-carrying scheduling forms (Schedule2,
// Server.Use2, Segment.Send2, ...) whose callbacks are static func(any)
// values. The request path in internal/core runs on pooled per-block
// records recycled through host-local free lists, and cache entries
// recycle through per-cache free lists with generation counters. Golden
// checksum tests pin simulation output to the pre-refactor engine bit for
// bit; the frozen BENCH_2.json records the measured speedup. Both CLIs take
// -cpuprofile / -memprofile for hot-path measurement.
//
// # Sharded fleet execution
//
// The sweep runner parallelizes across points; Config.Shards parallelizes
// within one simulation. A sharded run (internal/core.Cluster) partitions
// the hosts over per-shard event engines synchronized by a conservative
// epoch barrier: the shared filer is serviced at the barrier in globally
// sorted arrival order, and cross-host invalidations, callback-protocol
// control messages and crash-recovery scans are delivered there, so
// results are bit-identical for every shard count on every machine. The
// cluster is feature-complete: ConsistencyProtocol, RecoveredStart and
// RunScenario (phases, scripted faults and telemetry synchronizing at
// the barrier) all execute sharded. The ext-fleet experiment sweeps the
// population 64 -> 4096 hosts with and without the callback protocol;
// the BenchmarkFleetSequential / BenchmarkFleetSharded pair (gated in CI;
// the frozen BENCH_4.json holds its history) tracks the intra-simulation
// speedup and
// BenchmarkScenarioSharded the scenario executor.
// docs/ARCHITECTURE.md documents the layer map, the event lifecycle and
// the full determinism contract; docs/SCENARIOS.md the scenario schema
// and sharded-run semantics; docs/PERFORMANCE.md the zero-allocation rules
// and profiling recipes.
package repro
