package surf

import (
	"repro/internal/instr"
)

// Observability wiring for the resource layer. The model owns the
// platform band of a Paje trace: one container per resource (hosts and
// links under a "platform" root), an up/down STATE per resource, and
// utilization/saturation variables recomputed from the maxmin shares
// after every solve. Everything is stamped with simulated time and
// walks resList (creation order), so trace bytes are a pure function
// of the run. All hooks are nil-guarded: a model without EnableTrace
// pays one pointer test per solve (m.trace.Trace).

// Band is the platform band of a Paje trace as EnableTrace hands it up:
// the trace, the "platform" root container, and the PLATFORM and HOST
// container types. Upper layers (msg, simdag) build their own bands
// from it, on the same trace.
type Band struct {
	Trace    *instr.Trace
	Root     string
	RootType string
	HostType string
}

// kind is the resource's index into surfTrace's tables: 0 host, 1 link.
func (r *resource) kind() int {
	if r.isHost {
		return 0
	}
	return 1
}

// surfTrace holds the surf side of a Paje trace: the band handed up
// (a nil Trace while tracing is off) and the type aliases minted at
// EnableTrace time, each table indexed by resource kind.
type surfTrace struct {
	Band
	ctype [2]string // HOST / LINK container types
	state [2]string // up/down STATE types
	util  [2]string // utilization variables
	sat   [2]string // saturation variables
}

// EnableTrace attaches a Paje trace to the model: defines the
// platform-band types, creates one container per resource at the
// current simulated time, and starts emitting resource states and
// post-solve utilization/saturation. It returns the platform band.
// Idempotent: a traced model returns the band it already has, on its
// own trace; a nil tr on an untraced model returns the zero Band.
func (m *Model) EnableTrace(tr *instr.Trace) Band {
	if m.trace.Trace != nil || tr == nil {
		return m.trace.Band
	}
	st := &m.trace
	rootType := tr.DefineContainerType("0", "PLATFORM")
	for k, name := range [2]string{"HOST", "LINK"} {
		st.ctype[k] = tr.DefineContainerType(rootType, name)
	}
	for k := range st.state {
		st.state[k] = tr.DefineStateType(st.ctype[k], "STATE")
	}
	for _, stype := range st.state {
		tr.DefineEntityValue(stype, "up")
		tr.DefineEntityValue(stype, "down")
	}
	for k := range st.util {
		st.util[k] = tr.DefineVariableType(st.ctype[k], "utilization")
		st.sat[k] = tr.DefineVariableType(st.ctype[k], "saturation")
	}
	now := m.eng.Now()
	root := tr.CreateContainer(now, rootType, "0", "platform")
	st.Band = Band{Trace: tr, Root: root, RootType: rootType, HostType: st.ctype[0]}
	for _, r := range m.resList {
		r.pajeC = tr.CreateContainer(now, st.ctype[r.kind()], root, r.name)
		m.traceResourceState(r, r.on)
	}
	return st.Band
}

// Trace returns the attached Paje trace (nil when tracing is off).
func (m *Model) Trace() *instr.Trace { return m.trace.Trace }

// HostContainer returns the Paje container alias of a host ("" when
// tracing is off or the host is unknown).
func (m *Model) HostContainer(name string) string {
	if r := m.cpus[name]; r != nil {
		return r.pajeC
	}
	return ""
}

// emitShares re-derives each resource's utilization (total maxmin
// share) and saturation (share / effective capacity) after a solve and
// emits the variables that changed. Called from refresh with tracing
// on; walks resList so emission order is creation order.
func (m *Model) emitShares(now float64) {
	st := &m.trace
	for _, r := range m.resList {
		u := r.cnst.Usage()
		sat := 0.0
		if c := r.effectiveCapacity(); c > 0 {
			sat = u / c
		}
		if u != r.lastUtil {
			st.Trace.SetVariable(now, st.util[r.kind()], r.pajeC, u)
			r.lastUtil = u
		}
		if sat != r.lastSat {
			st.Trace.SetVariable(now, st.sat[r.kind()], r.pajeC, sat)
			r.lastSat = sat
		}
	}
}

// traceResourceState emits a resource's up/down transition.
func (m *Model) traceResourceState(r *resource, up bool) {
	state := "up"
	if !up {
		state = "down"
	}
	m.trace.Trace.SetState(m.eng.Now(), m.trace.state[r.kind()], r.pajeC, state)
}

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
