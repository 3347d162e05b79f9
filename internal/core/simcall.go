// The simcall layer: the explicit boundary between simulated processes
// and the kernel (the paper's user-level/simulation-kernel split).
//
// Every way a process can yield control is a *typed* simcall issued
// through a single entry point, so the kernel sees what the process
// wants (wait for an action, sleep, suspend, mailbox send or receive)
// instead of an opaque block. That buys three things:
//
//   - a synchronous fast path: simcalls whose answer is already known
//     in kernel state (zero-duration sleeps, waits on finished
//     actions) return inline without leaving the process's coroutine;
//   - one slow path: every other simcall parks the process, a yield
//     back to the kernel loop (Engine.drive), which resumes it once a
//     wake has queued it again;
//   - diagnosable blocking: a Waiting process records which simcall it
//     is stuck in, surfaced by DeadlockError.

package core

// SimcallKind identifies the typed simcall a process issues when it
// yields to the kernel.
type SimcallKind uint8

// Simcall kinds. SimcallSend and SimcallRecv label blocks whose wake is
// driven by upper-layer rendezvous bookkeeping (MSG mailboxes, SMPI
// message queues, GRAS inboxes); the kernel treats them like
// SimcallWait but keeps the label for diagnostics.
const (
	// SimcallNone means the process is not blocked in a simcall.
	SimcallNone SimcallKind = iota
	// SimcallWait is a generic block until an external Engine.Wake.
	SimcallWait
	// SimcallWaitActivity blocks until a surf action completes.
	SimcallWaitActivity
	// SimcallSleep blocks until a timer fires.
	SimcallSleep
	// SimcallSuspend is a self-suspension, lifted by Resume.
	SimcallSuspend
	// SimcallSend is a block in a mailbox/rendezvous send.
	SimcallSend
	// SimcallRecv is a block in a mailbox/rendezvous receive.
	SimcallRecv
)

func (k SimcallKind) String() string {
	switch k {
	case SimcallNone:
		return "none"
	case SimcallWait:
		return "wait"
	case SimcallWaitActivity:
		return "wait-activity"
	case SimcallSleep:
		return "sleep"
	case SimcallSuspend:
		return "suspend"
	case SimcallSend:
		return "send"
	case SimcallRecv:
		return "recv"
	default:
		return "simcall(?)"
	}
}

// simcallStats counts simcall dispositions since engine creation
// (MetricsInto reports them as core.simcalls_fast and _slow).
type simcallStats struct {
	// Fast counts simcalls answered inline, without a yield to the
	// kernel loop (finished-action waits, zero sleeps).
	Fast uint64
	// Slow counts simcalls that parked the caller: each is one yield
	// to the kernel loop and one resume.
	Slow uint64
}

// dispatch resumes the runnable processes in run-queue order, each
// until it parks or ends, until the queue is empty or a fatal error
// stops the run. The queue is drained in place (head cursor) so its
// backing array is reused across scheduling rounds.
func (e *Engine) dispatch() {
	for e.fatal == nil && e.runHead < len(e.runQ) {
		p := e.runQ[e.runHead]
		e.runQ[e.runHead] = nil // release the reference for the collector
		e.runHead++
		if p.state == Done {
			continue
		}
		if p.suspended && !p.killed {
			// Park: keep it Waiting until Resume re-delivers the wake.
			p.state = Waiting
			ec := p.wakeErr
			p.pendingWake = &ec
			continue
		}
		e.current = p
		p.state = Running
		e.endDispatchSpan()
		p.w.next()
		if p.state == Done {
			recycleWorker(p.w)
		}
	}
	e.runQ = e.runQ[:0]
	e.runHead = 0
	e.current = nil
	e.endDispatchSpan()
}

// park yields the process's coroutine back to the kernel loop and
// returns the wake error once the loop resumes it.
func (p *Process) park() error {
	p.w.yield(struct{}{})
	return p.wakeErr
}

// blockOn is the single slow-path simcall entry point: it records the
// typed call, parks the process, and re-establishes its running state
// on wake-up. A killed process unwinds (running its defers) instead of
// returning.
func (p *Process) blockOn(kind SimcallKind) error {
	e := p.engine
	if e.current != p {
		panic("core: simcall issued outside the running process")
	}
	e.stats.Slow++
	p.call = kind
	p.state = Waiting
	err := p.park()
	p.call = SimcallNone
	p.state = Running
	if p.killed {
		panic(killedSignal{})
	}
	return err
}

// BlockOn yields the calling process until the kernel wakes it (action
// completion, timer, Wake) and returns the error passed to Wake. kind
// names the operation it is blocked in (send, receive, …; SimcallWait
// for an opaque wait), so deadlock reports say what the process wants.
// If the process was killed while blocked, BlockOn unwinds the stack
// (running defers) instead of returning.
func (p *Process) BlockOn(kind SimcallKind) error {
	if kind == SimcallNone {
		kind = SimcallWait
	}
	return p.blockOn(kind)
}

// FastSimcall counts a simcall answered inline by an upper layer, with
// no yield (surf's Wait on a finished action).
func (p *Process) FastSimcall() { p.engine.stats.Fast++ }

// quiescentAt reports whether nothing else can happen at the current
// instant: no runnable process, no timer due now, and no model event
// due now. Only then may a zero-duration simcall be answered inline
// without changing what the caller would observe after a real yield.
func (e *Engine) quiescentAt() bool {
	if e.runHead < len(e.runQ) {
		return false
	}
	if len(e.timers) > 0 && e.timers[0].at <= e.now {
		return false
	}
	return e.model == nil || e.model.NextEventTime(e.now) > e.now
}

// Sleep blocks the process for d virtual seconds. A non-positive
// duration with nothing else due at this instant — no runnable
// process, timer or model completion — is the fast path and returns
// inline; otherwise a zero sleep still yields, so the instant settles
// first and a zero-sleep polling loop cannot starve the simulation.
// A NaN duration panics: it is this process's failure.
func (p *Process) Sleep(d float64) error {
	e := p.engine
	if d <= 0 {
		if e.current != p {
			panic("core: simcall issued outside the running process")
		}
		if e.quiescentAt() {
			e.stats.Fast++
			return nil
		}
		d = 0
	}
	// Rearm moves the timer if an early Wake left it armed.
	if p.sleepTm == nil {
		p.sleepTm = &Timer{index: -1, eng: e, fn: func() { e.Wake(p, nil) }}
	}
	p.sleepTm.Rearm(e.now + d)
	return p.blockOn(SimcallSleep)
}
