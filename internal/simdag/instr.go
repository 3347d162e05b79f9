package simdag

import "repro/internal/instr"

// Observability wiring for the DAG layer. On top of surf's platform
// band, the simulation traces one TASK container per task (created
// lazily at its first state change) with a TSTATE state following the
// NotScheduled→…→Done/Failed lifecycle, riding the same notify hook
// that feeds OnTaskStateChange. All hooks are nil-guarded; the
// reschedule counter underneath is a plain always-on field.

// dagTrace holds the simdag side of a Paje trace.
type dagTrace struct {
	tr       *instr.Trace
	taskType string // TASK container type, under the platform root
	tstate   string // lifecycle state type on tasks
	root     string // the "platform" root container alias
}

// EnableTrace attaches a Paje trace to the simulation: the surf
// platform band is enabled first, then the task band on top. Tasks
// created before or after are both covered — containers appear at a
// task's first state change. Idempotent; nil is a no-op.
func (s *Simulation) EnableTrace(tr *instr.Trace) {
	if tr == nil || s.trace != nil {
		return
	}
	s.model.EnableTrace(tr)
	dt := &dagTrace{tr: tr, root: s.model.TraceRoot()}
	dt.taskType = tr.DefineContainerType(s.model.TraceRootType(), "TASK")
	dt.tstate = tr.DefineStateType(dt.taskType, "TSTATE")
	for st := NotScheduled; st <= Failed; st++ {
		tr.DefineEntityValue(dt.tstate, st.String())
	}
	s.trace = dt
}

// Trace returns the attached Paje trace (nil when tracing is off).
func (s *Simulation) Trace() *instr.Trace {
	if s.trace == nil {
		return nil
	}
	return s.trace.tr
}

// traceTask emits a task's state transition, creating its container on
// first sight. Called from notify, so the trace sees exactly the
// transitions observers see.
func (s *Simulation) traceTask(t *Task) {
	dt := s.trace
	now := s.eng.Now()
	if t.pajeC == "" {
		t.pajeC = dt.tr.CreateContainer(now, dt.taskType, dt.root, t.name)
	}
	dt.tr.SetState(now, dt.tstate, t.pajeC, t.state.String())
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
