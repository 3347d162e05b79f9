package simdag

import (
	"repro/internal/instr"
	"repro/internal/surf"
)

// Observability wiring for the DAG layer. On top of surf's platform
// band, the simulation traces one TASK container per task (created
// lazily at its first state change) with a TSTATE state following the
// NotScheduled→…→Done/Failed lifecycle: notify's one sink, and so the
// simulation's only task observer. All hooks are nil-guarded; the
// reschedule counter underneath is a plain always-on field.

// dagTrace holds the simdag side of a Paje trace.
type dagTrace struct {
	surf.Band          // the platform band this one is built on
	taskType  string   // TASK container type, under the platform root
	tstate    string   // lifecycle state type on tasks
	conts     []string // task container aliases by seq, minted at first state change
}

// EnableTrace attaches a Paje trace to the simulation: the surf
// platform band is enabled first, then the task band on top, on the
// platform band's trace (a traced model keeps its own). Tasks created
// before or after are both covered — containers appear at a task's
// first state change. Idempotent; nil is a no-op.
func (s *Simulation) EnableTrace(tr *instr.Trace) {
	if tr == nil || s.trace != nil {
		return
	}
	dt := &dagTrace{Band: s.model.EnableTrace(tr)}
	dt.taskType = dt.Trace.DefineContainerType(dt.RootType, "TASK")
	dt.tstate = dt.Trace.DefineStateType(dt.taskType, "TSTATE")
	for st := NotScheduled; st <= Failed; st++ {
		dt.Trace.DefineEntityValue(dt.tstate, st.String())
	}
	s.trace = dt
}

// Trace returns the model's Paje trace (nil when tracing is off).
func (s *Simulation) Trace() *instr.Trace { return s.model.Trace() }

// traceTask emits a task's state transition, creating its container on
// first sight. Called from notify at every transition.
func (s *Simulation) traceTask(t *Task) {
	dt := s.trace
	now := s.eng.Now()
	for int(t.seq) >= len(dt.conts) {
		dt.conts = append(dt.conts, "")
	}
	if dt.conts[t.seq] == "" {
		dt.conts[t.seq] = dt.Trace.CreateContainer(now, dt.taskType, dt.Root, t.name)
	}
	dt.Trace.SetState(now, dt.tstate, dt.conts[t.seq], t.state.String())
}

// Reschedules returns how many compute tasks were diverted back to the
// scheduler by host failures (see SetReschedulePolicy).
func (s *Simulation) Reschedules() uint64 { return s.reschedules }

// MetricsInto dumps the DAG layer's counters into r (simdag.*
// namespace) and delegates to the layers underneath (surf, maxmin,
// core).
func (s *Simulation) MetricsInto(r *instr.Registry) {
	if r == nil {
		return
	}
	r.Set("simdag.tasks", float64(len(s.tasks)))
	ptasks := 0
	for _, t := range s.tasks {
		if t.kind == Parallel {
			ptasks++
		}
	}
	r.Set("simdag.ptasks", float64(ptasks))
	r.Add("simdag.done", uint64(s.nDone))
	r.Add("simdag.failed", uint64(s.nFailed))
	r.Add("simdag.reschedules", s.reschedules)
	r.Add("simdag.watch_hits", uint64(len(s.watchHits)))
	s.model.MetricsInto(r)
	s.eng.MetricsInto(r)
}
