package surf

import (
	"repro/internal/instr"
	"repro/internal/maxmin"
)

// Observability wiring for the resource layer. The model owns the
// platform band of a Paje trace: one container per resource (hosts and
// links under a "platform" root), an up/down STATE per resource, and
// utilization/saturation variables recomputed from the maxmin shares
// after every solve. Everything is stamped with simulated time and
// walks resList (creation order), so trace bytes are a pure function
// of the run. All hooks are nil-guarded: a model without EnableTrace
// pays one pointer test per solve.

// surfTrace holds the surf side of a Paje trace: type and container
// aliases minted at EnableTrace time.
type surfTrace struct {
	tr       *instr.Trace
	platType string // PLATFORM container type alias
	root     string // the "platform" root container alias
	hostType string
	linkType string
	stateH   string // STATE type on hosts
	stateL   string // STATE type on links
	utilH    string // utilization variable on hosts
	utilL    string
	satH     string // saturation variable on hosts
	satL     string
}

// EnableTrace attaches a Paje trace to the model: defines the
// platform-band types, creates one container per resource at the
// current simulated time, and starts emitting resource states and
// post-solve utilization/saturation. Idempotent; nil tr is a no-op.
func (m *Model) EnableTrace(tr *instr.Trace) {
	if tr == nil || m.trace != nil {
		return
	}
	st := &surfTrace{tr: tr}
	st.platType = tr.DefineContainerType("0", "PLATFORM")
	st.hostType = tr.DefineContainerType(st.platType, "HOST")
	st.linkType = tr.DefineContainerType(st.platType, "LINK")
	st.stateH = tr.DefineStateType(st.hostType, "STATE")
	st.stateL = tr.DefineStateType(st.linkType, "STATE")
	tr.DefineEntityValue(st.stateH, "up")
	tr.DefineEntityValue(st.stateH, "down")
	tr.DefineEntityValue(st.stateL, "up")
	tr.DefineEntityValue(st.stateL, "down")
	st.utilH = tr.DefineVariableType(st.hostType, "utilization")
	st.satH = tr.DefineVariableType(st.hostType, "saturation")
	st.utilL = tr.DefineVariableType(st.linkType, "utilization")
	st.satL = tr.DefineVariableType(st.linkType, "saturation")
	now := m.eng.Now()
	st.root = tr.CreateContainer(now, st.platType, "0", "platform")
	for _, r := range m.resList {
		ctype, stype := st.linkType, st.stateL
		if r.isHost {
			ctype, stype = st.hostType, st.stateH
		}
		r.pajeC = tr.CreateContainer(now, ctype, st.root, r.name)
		state := "up"
		if !r.on {
			state = "down"
		}
		tr.SetState(now, stype, r.pajeC, state)
	}
	m.trace = st
}

// Trace returns the attached Paje trace (nil when tracing is off).
func (m *Model) Trace() *instr.Trace {
	if m.trace == nil {
		return nil
	}
	return m.trace.tr
}

// TraceRoot returns the "platform" root container alias, the common
// ancestor upper layers use for message links.
func (m *Model) TraceRoot() string {
	if m.trace == nil {
		return ""
	}
	return m.trace.root
}

// TraceRootType returns the PLATFORM container type alias so upper
// layers can define link types spanning the whole platform.
func (m *Model) TraceRootType() string {
	if m.trace == nil {
		return ""
	}
	return m.trace.platType
}

// TraceHostType returns the HOST container type alias so upper layers
// can nest their own containers (processes) under hosts.
func (m *Model) TraceHostType() string {
	if m.trace == nil {
		return ""
	}
	return m.trace.hostType
}

// HostContainer returns the Paje container alias of a host ("" when
// tracing is off or the host is unknown).
func (m *Model) HostContainer(name string) string {
	if m.trace == nil {
		return ""
	}
	if r, ok := m.cpus[name]; ok {
		return r.pajeC
	}
	return ""
}

// emitShares re-derives each resource's utilization (total maxmin
// share) and saturation (share / effective capacity) after a solve and
// emits the variables that changed. Called from refresh with tracing
// on; walks resList so emission order is creation order.
func (m *Model) emitShares(now float64) {
	st := m.trace
	for _, r := range m.resList {
		u := r.cnst.Usage()
		sat := 0.0
		if c := r.effectiveCapacity(); c > 0 {
			sat = u / c
		}
		if u != r.lastUtil {
			vt := st.utilL
			if r.isHost {
				vt = st.utilH
			}
			st.tr.SetVariable(now, vt, r.pajeC, u)
			r.lastUtil = u
		}
		if sat != r.lastSat {
			vt := st.satL
			if r.isHost {
				vt = st.satH
			}
			st.tr.SetVariable(now, vt, r.pajeC, sat)
			r.lastSat = sat
		}
	}
}

// traceResourceState emits a resource's up/down transition.
func (m *Model) traceResourceState(r *resource, up bool) {
	st := m.trace
	stype := st.stateL
	if r.isHost {
		stype = st.stateH
	}
	state := "up"
	if !up {
		state = "down"
	}
	st.tr.SetState(m.eng.Now(), stype, r.pajeC, state)
}

// SolverStats reports the underlying MaxMin system's cumulative solve
// counters.
func (m *Model) SolverStats() maxmin.SolveStats { return m.sys.Stats() }

// MetricsInto dumps the resource layer's counters and pool
// scoreboards into r (surf.* namespace) and delegates to the maxmin
// system underneath.
func (m *Model) MetricsInto(r *instr.Registry) {
	if r == nil {
		return
	}
	r.Add("surf.actions_started", uint64(m.nextSeq))
	r.Set("surf.heap_depth", float64(len(m.heap)))
	r.Max("surf.heap_peak", float64(m.heapPeak))
	r.Set("surf.resources", float64(len(m.resList)))
	r.SetPool("surf.action_pool", m.actPool.Stat())
	r.SetPool("surf.res_slice_pool", m.resPool.Stat())
	m.sys.MetricsInto(r)
}
