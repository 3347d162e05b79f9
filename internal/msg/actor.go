package msg

import (
	"sort"

	"repro/internal/platform"
)

// actor is the paper's one notion of an MSG process: a named party on
// a host that can be created, killed and restarted, and that blocks on
// one activity at a time. Process (a goroutine runs its body) and
// ChainProc (the kernel interprets its program) both embed it, and
// every piece of kernel-side bookkeeping — the per-host registry, the
// host-failure sweep, the restart queue, the rendezvous endpoints, the
// activity trace — sees only the actor.
//
// The form is looked at in one place, the four methods at the bottom
// of this file: how a blocked actor is resumed (wake / advance), how it
// is killed, and how it is respawned.
type actor struct {
	env  *Environment
	host *platform.Host
	name string
	pid  int

	autoRestart bool

	// OnFailure, when non-nil, is invoked in kernel context right before
	// the actor is killed by a host failure (and before any restart is
	// queued). It must not issue simcalls; use it for accounting and
	// event logs.
	OnFailure func(err error)

	pajeC    string // trace container alias ("" with tracing off)
	pajeOpen bool   // a PSTATE push awaits its pop

	// The form: exactly one is set.
	proc  *Process
	chain *ChainProc
}

// Env returns the environment the actor belongs to.
func (a *actor) Env() *Environment { return a.env }

// Host returns the host the actor runs on.
func (a *actor) Host() *platform.Host { return a.host }

// Name returns the actor's process name.
func (a *actor) Name() string { return a.name }

// PID returns the process identifier. Goroutine processes and chains
// share one PID space; a restart allocates a fresh one.
func (a *actor) PID() int { return a.pid }

// Now returns the current simulated time.
func (a *actor) Now() float64 { return a.env.eng.Now() }

// PSTATE values: what an actor is blocked on, as the trace names it.
const (
	stateCompute = "compute"
	statePut     = "put"
	stateGet     = "get"
	stateKilled  = "killed"
)

// register files the actor under its current host, where the
// host-failure sweep finds its victims.
func (env *Environment) register(a *actor) {
	reg := env.byHost[a.host.Name]
	if reg == nil {
		reg = make(map[*actor]bool)
		env.byHost[a.host.Name] = reg
	}
	reg[a] = true
}

// enter starts an actor's life (first or restarted): registered under
// its host, with a trace container of its own when tracing is on.
func (a *actor) enter() {
	env := a.env
	env.register(a)
	if mt := env.trace; mt != nil {
		a.pajeC = mt.tr.CreateContainer(env.eng.Now(), mt.procType, env.model.HostContainer(a.host.Name), a.name)
	}
}

// leave ends it: deregistered, any open activity closed, an abnormal
// death marked "killed" before the container goes away.
func (a *actor) leave(err error) {
	env := a.env
	delete(env.byHost[a.host.Name], a)
	if a.pajeC == "" {
		return
	}
	a.end()
	mt, now := env.trace, env.eng.Now()
	if err != nil {
		mt.tr.SetState(now, mt.pstate, a.pajeC, stateKilled)
	}
	mt.tr.DestroyContainer(now, mt.procType, a.pajeC)
	a.pajeC = ""
}

// begin and end bracket every block: the actor's activity is recorded
// once, as a PSTATE interval of the trace. Gantt charts are rendered
// from that (gantt.FromTrace), so a chart and a Paje file always agree.
func (a *actor) begin(state string) {
	if mt := a.env.trace; mt != nil && a.pajeC != "" {
		mt.tr.PushState(a.env.eng.Now(), mt.pstate, a.pajeC, state)
		a.pajeOpen = true
	}
}

func (a *actor) end() {
	if a.pajeOpen {
		mt := a.env.trace
		mt.tr.PopState(a.env.eng.Now(), mt.pstate, a.pajeC)
		a.pajeOpen = false
	}
}

// hostStateChanged is surf's host up/down hook. A failure kills every
// actor on the host in PID order, not map order: each kill is an
// observable event (unwind, OnExit callbacks, wake of rendezvous
// peers), so the sweep's order is part of the replayable event log.
// Victims marked for restart queue up in that same order and respawn
// in it when the host recovers.
func (env *Environment) hostStateChanged(h *platform.Host, up bool) {
	if up {
		dead := env.restartQ[h.Name]
		delete(env.restartQ, h.Name)
		for _, a := range dead {
			a.respawn()
		}
		return
	}
	if !env.KillOnHostFailure {
		return
	}
	victims := make([]*actor, 0, len(env.byHost[h.Name]))
	for a := range env.byHost[h.Name] { //lint:allow det-maprange victims are sorted by PID below before any observable effect
		victims = append(victims, a)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].pid < victims[j].pid })
	for _, a := range victims {
		if a.OnFailure != nil {
			a.OnFailure(ErrHostFailed)
		}
		restart := a.autoRestart || env.RestartOnRecovery
		if restart {
			env.restartQ[h.Name] = append(env.restartQ[h.Name], a)
		}
		a.kill(restart)
	}
}

// --- the form -----------------------------------------------------------

// wake and advance are the two halves of resuming an actor whose block
// ended with err. A goroutine process is queued on the kernel's run
// queue and picks the outcome up when scheduled; a chain is advanced
// inline, on the caller's stack. A completion with two endpoints wakes
// both before it advances either (sender first each time), so whatever
// an advancing chain makes runnable in the same instant queues behind
// its peer. Both are no-ops on a nil actor — an endpoint whose owner is
// gone — and on the other form.
func (a *actor) wake(err error) {
	if a != nil && a.proc != nil {
		a.env.eng.Wake(a.proc.cp, err)
	}
}

func (a *actor) advance(task *Task, err error) {
	if a != nil && a.chain != nil {
		a.chain.unblock(task, err)
	}
}

// kill terminates the actor from kernel context: a goroutine process
// unwinds when next scheduled, a chain is torn down inline. restart
// says the actor now sits in the restart queue, which keeps a chain's
// instance out of the free list until it is re-armed.
func (a *actor) kill(restart bool) {
	if a.chain != nil {
		a.chain.restartPending = restart
		a.chain.kill(ErrKilled)
		return
	}
	a.proc.cp.Kill()
}

// respawn brings a host-failure victim back when its host recovers. A
// process respawn is a fresh process (new PID, the original body run
// from the top) inheriting the old one's name, host, daemon-ness,
// restart flag and OnFailure hook — the MSG analogue of a node coming
// back and its services being re-launched by init. A chain respawn
// re-arms the same ChainProc from step 0 under a fresh PID.
func (a *actor) respawn() {
	if a.chain != nil {
		a.chain.rearm()
		return
	}
	old := a.proc
	np, err := a.env.NewProcess(a.name, a.host.Name, old.fn)
	if err != nil {
		return // the host vanished from the platform: nothing to do
	}
	np.autoRestart = a.autoRestart
	np.OnFailure = a.OnFailure
	if old.cp.Daemon() {
		np.Daemonize()
	}
}
