// Package instr is the observability layer of the stack: Paje trace
// export, a metrics registry, and a wall-clock phase profiler, shared
// by every simulation package (core, maxmin, surf, msg, simdag,
// faults) and by the CLIs that expose them (-trace / -stats /
// -profile).
//
// Three bands, two clocks:
//
//   - The deterministic band — the Paje tracer and the metrics
//     registry — is stamped exclusively with SIMULATED time. Its byte
//     output is a pure function of the run: same workload, same trace,
//     bit for bit, pooled or not. Nothing in this band may read the
//     host clock (det-wallclock enforces it; this package is part of
//     the linter's determinism scope).
//   - The wall-clock band — the phase Profiler — measures how long the
//     kernel's own phases take in REAL time. It reports only: its
//     numbers never feed a simulation decision, so a run traced with
//     profiling on or off is identical. The single host-clock read
//     lives behind one reasoned //lint:allow seam (profile.go).
//
// Everything here is zero-cost when disabled: the layers hold nil
// pointers and every hook is either a nil-guard or a method that is
// safe (and trivially cheap) on a nil receiver. When enabled, the
// Paje writer formats each event straight into its output buffer, so
// steady-state tracing allocates nothing, and the registry stores
// plain values by name. The package keeps no state of its own: every
// Trace and Registry is self-contained, so simulations in different
// goroutines trace independently.
//
// This package imports nothing from the rest of the module but the
// leaf package pool (for PoolStat), so every layer can depend on it
// without cycles.
package instr

import "repro/internal/pool"

// PoolStat is one free list's scoreboard, as every pooled type across
// the stack reports it (Registry.SetPool).
type PoolStat = pool.Stat
