package msg

import (
	"repro/internal/instr"
	"repro/internal/surf"
)

// Observability wiring for the MSG layer. On top of surf's platform
// band, the environment traces one PROCESS container per actor (under
// its host), an activity state (PSTATE: compute/put/get) pushed and
// popped around every block (actor.begin/end), message links between
// the communicating processes, and the mailbox backlog as
// root-container variables. All hooks are nil-guarded; the paired
// counters underneath (queue depths, retries, pool scoreboards) are
// plain always-on fields.

// msgTrace holds the MSG side of a Paje trace.
type msgTrace struct {
	surf.Band           // the platform band this one is built on
	procType  string    // PROCESS container type, under HOST
	pstate    string    // activity state type on processes
	linkType  string    // MSG link type, spanning the platform root
	qVar      [2]string // queued_sends / queued_recvs variables on the root
	nextKey   int       // deterministic message-link key counter
}

// EnableTrace attaches a Paje trace to the environment: the surf
// platform band is enabled first, then the MSG process band on top, on
// the platform band's trace (a traced model keeps its own). Call it
// before deploying processes — containers are only created for
// processes and chains started after this. Idempotent; nil is a no-op.
func (env *Environment) EnableTrace(tr *instr.Trace) {
	if tr == nil || env.trace != nil {
		return
	}
	mt := &msgTrace{Band: env.model.EnableTrace(tr)}
	tr = mt.Trace
	mt.procType = tr.DefineContainerType(mt.HostType, "PROCESS")
	mt.pstate = tr.DefineStateType(mt.procType, "PSTATE")
	tr.DefineEntityValue(mt.pstate, stateCompute)
	tr.DefineEntityValue(mt.pstate, statePut)
	tr.DefineEntityValue(mt.pstate, stateGet)
	tr.DefineEntityValue(mt.pstate, stateKilled)
	mt.linkType = tr.DefineLinkType(mt.RootType, mt.procType, mt.procType, "MSG")
	mt.qVar[send] = tr.DefineVariableType(mt.RootType, "queued_sends")
	mt.qVar[recv] = tr.DefineVariableType(mt.RootType, "queued_recvs")
	env.trace = mt
}

// Trace returns the model's Paje trace (nil when tracing is off).
func (env *Environment) Trace() *instr.Trace { return env.model.Trace() }

// noteQueued tracks the mailbox backlog (queued sends and receives
// across all mailboxes): delta records facing d were queued or taken.
// The counters are always on; with tracing enabled each change is also
// emitted as a root-container variable.
func (env *Environment) noteQueued(d dir, delta int) {
	env.queued[d] += delta
	env.queuedPeak = max(env.queuedPeak, env.queued[d])
	if mt := env.trace; mt != nil {
		mt.Trace.SetVariable(env.eng.Now(), mt.qVar[d], mt.Root, float64(env.queued[d]))
	}
}

// MetricsInto dumps the MSG layer's counters and pool scoreboards into
// r (msg.* namespace) and delegates to the layers underneath (surf,
// maxmin, core).
func (env *Environment) MetricsInto(r *instr.Registry) {
	if r == nil {
		return
	}
	r.Add("msg.retries", env.retries)
	r.Set("msg.queued_sends", float64(env.queued[send]))
	r.Set("msg.queued_recvs", float64(env.queued[recv]))
	r.Max("msg.queued_peak", float64(env.queuedPeak))
	r.Set("msg.live_chains", float64(env.liveChains))
	r.SetPool("msg.send_pool", env.pools[send].Stat())
	r.SetPool("msg.recv_pool", env.pools[recv].Stat())
	r.SetPool("msg.chain_pool", env.chainPool.Stat())
	env.model.MetricsInto(r)
	env.eng.MetricsInto(r)
}
