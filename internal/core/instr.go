package core

import (
	"time"

	"repro/internal/instr"
)

// Observability wiring for the kernel. The engine carries an optional
// phase profiler (wall-clock, report-only — see instr.Profiler) and
// dumps its always-on counters into a metrics registry on demand.

// SetProfiler attaches a phase profiler to the engine. The profiler
// times the kernel's own phases (solve / advance / sweep / dispatch)
// in wall-clock time; it is report-only and never feeds simulation
// state, so runs with and without it are identical. Pass nil to
// detach.
func (e *Engine) SetProfiler(p *instr.Profiler) { e.prof = p }

// endDispatchSpan charges the kernel turn's dispatch phase to the
// profiler: the span from the end of the timer sweep to the first
// process resumed (or the empty queue), process bodies excluded.
func (e *Engine) endDispatchSpan() {
	if !e.dispatchT0.IsZero() {
		e.prof.End(instr.PhaseDispatch, e.dispatchT0)
		e.dispatchT0 = time.Time{}
	}
}

// MetricsInto dumps the kernel's counters into r under the core.*
// namespace: simcall dispositions, process starts vs goroutine
// spawns, and the shared worker-stack free list.
func (e *Engine) MetricsInto(r *instr.Registry) {
	if r == nil {
		return
	}
	r.Add("core.simcalls_fast", e.stats.Fast)
	r.Add("core.simcalls_slow", e.stats.Slow)
	r.Add("core.processes_spawned", uint64(e.Spawned()))
	r.Add("core.goroutine_spawns", uint64(e.goSpawns))
	r.Max("core.goroutines_peak", float64(e.goPeak))
	r.Max("core.timer_peak", float64(e.timerPeak))
	r.Set("core.timers", float64(len(e.timers)))
	r.Add("core.fault_panics", uint64(e.panics))
	r.SetPool("core.worker_pool", workerPoolStat())
}
