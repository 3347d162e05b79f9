package msg

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/platform"
	"repro/internal/surf"
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
	home *hostRec // the host the actor runs on
	name string
	pid  int

	// The last send's destination and, once a transfer there has started,
	// the route to it from home: kept while sends name the same host (sending),
	// dropped by Migrate, re-validated by surf on a platform generation change.
	peer  *hostRec
	route *surf.RouteHandle

	// box is the mailbox of the actor's last record, for whoever must
	// find it there: a chain's kill, an eager put's completion (arrive).
	box *mailbox

	autoRestart bool
	pajeOpen    bool  // a PSTATE push awaits its pop
	slot        int32 // position in home.actors while alive

	// OnFailure, when non-nil, is invoked in kernel context right before
	// the actor is killed by a host failure (and before any restart is
	// queued). It must not issue simcalls; use it for accounting and
	// event logs.
	OnFailure func(err error)

	pajeC string // trace container alias ("" with tracing off)

	// The form: exactly one is set.
	proc  *Process
	chain *ChainProc
}

// Env returns the environment the actor belongs to.
func (a *actor) Env() *Environment { return a.env }

// Host returns the host the actor runs on.
func (a *actor) Host() *platform.Host { return a.home.host }

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

// add files a under the host, for the failure sweep to find; drop takes
// it out again, the last entry moving into its slot.
func (h *hostRec) add(a *actor) {
	a.slot = int32(len(h.actors))
	h.actors = append(h.actors, a)
}

func (h *hostRec) drop(a *actor) {
	last := len(h.actors) - 1
	moved := h.actors[last]
	h.actors[a.slot], moved.slot = moved, a.slot
	h.actors[last] = nil
	h.actors = h.actors[:last]
}

// sending readies the send half of a rendezvous, for both forms: the
// destination resolved to its record — the one kept from the last send if
// that named the same host; an unknown host leaves what was kept alone —
// and the task stamped and put on a record bound for the mailbox returned.
func (a *actor) sending(task *Task, host string, channel int) (*pending, *mailbox, error) {
	if a.peer == nil || a.peer.host.Name != host {
		to := a.env.record(host)
		if to == nil {
			return nil, nil, fmt.Errorf("msg: unknown destination host %q", host)
		}
		a.peer, a.route = to, nil
	}
	if task == nil {
		return nil, nil, errors.New("msg: nil task")
	}
	task.source, task.sender = a.home.host, a.proc // a chain has no *Process identity
	r := a.env.grab(send, a)
	r.task = task
	return r, a.peer.mailbox(channel), nil
}

// enter starts an actor's life (first or restarted): registered under
// its host, with a trace container of its own when tracing is on.
func (a *actor) enter() {
	env := a.env
	a.home.add(a)
	if mt := env.trace; mt != nil {
		a.pajeC = mt.tr.CreateContainer(env.eng.Now(), mt.procType, env.model.HostContainer(a.home.host.Name), a.name)
	}
}

// leave ends it: deregistered, any open activity closed, an abnormal
// death marked "killed" before the container goes away.
func (a *actor) leave(err error) {
	env := a.env
	a.home.drop(a)
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
func (env *Environment) hostStateChanged(ph *platform.Host, up bool) {
	h := env.record(ph.Name)
	if up {
		dead := h.restart
		h.restart = nil
		for _, a := range dead {
			a.respawn()
		}
		return
	}
	if !env.KillOnHostFailure {
		return
	}
	// A copy: every kill edits h.actors, at once (chain) or on unwind.
	victims := append([]*actor(nil), h.actors...)
	sort.Slice(victims, func(i, j int) bool { return victims[i].pid < victims[j].pid })
	for _, a := range victims {
		if a.OnFailure != nil {
			a.OnFailure(ErrHostFailed)
		}
		restart := a.autoRestart || env.RestartOnRecovery
		if restart {
			h.restart = append(h.restart, a)
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
	np := a.env.spawn(a.name, a.home, old.fn)
	np.autoRestart = a.autoRestart
	np.OnFailure = a.OnFailure
	if old.cp.Daemon() {
		np.Daemonize()
	}
}
