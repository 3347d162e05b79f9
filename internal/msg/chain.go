package msg

// Declarative activity-chain processes: the processless MSG form.
//
// A Chain is a compiled description of a process as a flat program of
// activity steps — send / receive / compute / sleep plus loop, branch
// and callback constructs. A ChainProc executes that program directly
// in kernel context: each step arms a surf action (or a timer, or a
// rendezvous record) through the exact same fast paths the goroutine
// API uses, and the completion callback advances the program counter
// and runs the next step. No coroutine, no stack, no switch —
// a chain's entire kernel-visible behaviour (rendezvous matching,
// action ordering, activity trace, kill/restart semantics) is
// indistinguishable from the equivalent goroutine process, which the
// equivalence suite in chain_test.go replays both ways to check.
//
// The form exists for scale: a 10M-activity run over goroutine
// processes pays a stack and two channel operations per block/wake,
// while the chain interpreter pays a pc increment and a virtual-step
// dispatch. Both forms are one actor (actor.go) to the registry, the
// failure sweep and the rendezvous, and share the PID space, the live
// count and the Spawned() accounting, so a mixed workload
// (examples/masterworker keeps its dispatcher as a goroutine and runs
// workers as chains) needs no special casing anywhere.

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/surf"
)

// chainOp is the opcode of one compiled chain step.
type chainOp uint8

const (
	opLoopInit chainOp = iota // reset the loop counter for a Loop
	opLoopJump                // decrement and jump back while iterations remain
	opPut                     // send the task register and block until delivered
	opGet                     // receive a task into the register and block
	opCompute                 // run flops on the local CPU and block
	opSleep                   // block for a fixed duration
	opDo                      // run a kernel-context callback, no block
	opStopIf                  // terminate the chain if the predicate holds
)

// chainStep is one compiled step. Which fields are meaningful depends
// on op; the zero value of the rest is inert.
type chainStep struct {
	op      chainOp
	flops   float64 // opCompute
	dur     float64 // opSleep
	dest    string  // opPut destination host
	channel int     // opPut, opGet
	slot    int     // opLoopInit, opLoopJump counter index
	n       int     // opLoopInit iteration count (<= 0: forever)
	target  int     // opLoopJump body start
	useTask bool    // opCompute: run the task register instead of flops

	do   func(*ChainProc) // opDo
	pred func(*Task) bool // opStopIf
}

// Chain is a compiled, immutable activity-chain program. One Chain is
// typically shared by many ChainProcs (all workers run the same spec).
type Chain struct {
	steps    []chainStep
	numLoops int
}

// ChainBuilder accumulates steps; Build compiles them. Builder methods
// return the builder for fluent chaining; errors (unbalanced loops) are
// deferred to Build.
type ChainBuilder struct {
	steps    []chainStep
	frames   []chainFrame
	numLoops int
	err      error
}

// chainFrame is an open Loop during building.
type chainFrame struct {
	slot  int
	start int // pc of the first body step
}

// NewChain starts a chain description.
func NewChain() *ChainBuilder { return &ChainBuilder{} }

// Loop opens a counted loop executing its body n times; n <= 0 loops
// forever (daemon-style servers — pair with StopIf, or rely on kill).
// Close with End. Loops nest.
func (b *ChainBuilder) Loop(n int) *ChainBuilder {
	slot := b.numLoops
	b.numLoops++
	b.frames = append(b.frames, chainFrame{slot: slot, start: len(b.steps) + 1})
	b.steps = append(b.steps, chainStep{op: opLoopInit, slot: slot, n: n})
	return b
}

// End closes the innermost open Loop.
func (b *ChainBuilder) End() *ChainBuilder {
	if len(b.frames) == 0 {
		b.err = errors.New("msg: chain: End without Loop")
		return b
	}
	f := b.frames[len(b.frames)-1]
	b.frames = b.frames[:len(b.frames)-1]
	b.steps = append(b.steps, chainStep{op: opLoopJump, slot: f.slot, target: f.start})
	return b
}

// PutReg sends the task in the chain's task register to (destHost,
// channel) and blocks until delivered — MSG_task_put as a step, and the
// chain's only send. The register is set by Get or by SetTask in a Do
// step (Do(func(c *ChainProc) { c.SetTask(NewTask(…)) }) sends a fresh
// task each pass); it keeps pointing at the task afterwards, so a loop
// of PutReg steps reuses one Task object — the zero-allocation steady
// state.
func (b *ChainBuilder) PutReg(destHost string, channel int) *ChainBuilder {
	b.steps = append(b.steps, chainStep{op: opPut, dest: destHost, channel: channel})
	return b
}

// Get receives the next task from the given channel of the chain's own
// host into the task register, blocking until one arrives.
func (b *ChainBuilder) Get(channel int) *ChainBuilder {
	b.steps = append(b.steps, chainStep{op: opGet, channel: channel})
	return b
}

// Compute runs flops of work on the chain's host (MSG_task_execute as
// a step). name labels the step for readers of the spec; the trace
// records the activity itself, as PSTATE "compute".
func (b *ChainBuilder) Compute(name string, flops float64) *ChainBuilder {
	b.steps = append(b.steps, chainStep{op: opCompute, flops: flops})
	return b
}

// ComputeTask runs the execution payload of the task register (the
// task last received) — the worker half of a task-farm.
func (b *ChainBuilder) ComputeTask() *ChainBuilder {
	b.steps = append(b.steps, chainStep{op: opCompute, useTask: true})
	return b
}

// Sleep blocks the chain for d simulated seconds.
func (b *ChainBuilder) Sleep(d float64) *ChainBuilder {
	b.steps = append(b.steps, chainStep{op: opSleep, dur: d})
	return b
}

// Do runs fn inline in kernel context — counters, logging, task
// mutation. fn must not block (no goroutine-API calls); it sees the
// chain for Now/Task/SetTask access.
func (b *ChainBuilder) Do(fn func(*ChainProc)) *ChainBuilder {
	b.steps = append(b.steps, chainStep{op: opDo, do: fn})
	return b
}

// StopIf terminates the chain normally (err nil) when pred holds for
// the task register — the poison-pill test of a task-farm worker.
func (b *ChainBuilder) StopIf(pred func(*Task) bool) *ChainBuilder {
	b.steps = append(b.steps, chainStep{op: opStopIf, pred: pred})
	return b
}

// Build compiles the chain. It fails on unbalanced Loop/End.
func (b *ChainBuilder) Build() (*Chain, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.frames) > 0 {
		return nil, errors.New("msg: chain: Loop without End")
	}
	if len(b.steps) == 0 {
		return nil, errors.New("msg: chain: empty chain")
	}
	return &Chain{steps: b.steps, numLoops: b.numLoops}, nil
}

// MustBuild is Build panicking on error (for compile-time-constant
// chain specs in examples and benchmarks).
func (b *ChainBuilder) MustBuild() *Chain {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// ChainConfig carries the optional knobs of StartChain.
type ChainConfig struct {
	// Daemon excludes the chain from the engine's liveness count, like
	// Process.Daemonize: the simulation may end while it still runs.
	Daemon bool
	// AutoRestart re-arms the chain from step 0 when its host recovers
	// from a failure that killed it, like Process.SetAutoRestart.
	AutoRestart bool
	// OnExit runs in kernel context when the chain terminates (err nil
	// on normal completion, ErrKilled on kill, the step error
	// otherwise). This is the sanctioned way to harvest results: the
	// ChainProc itself may be recycled right after.
	OnExit func(err error)
	// OnFailure mirrors Process.OnFailure: invoked right before a host
	// failure kills the chain, before any restart is queued.
	OnFailure func(err error)
}

// ChainProc is a running (or pooled) instance of a Chain on a host: the
// processless form of an actor (actor.go). It is this package's
// surf.Completion handler for the chain's compute actions; transfers
// complete through the shared pending.ActionDone, which advances the
// chain endpoints inline.
//
// Lifetime: StartChain hands out the instance; once the chain
// terminates (OnExit has run) the instance may be scrubbed and re-armed
// for a later StartChain, so holding the pointer past termination
// reads another chain's state. Harvest results in OnExit.
type ChainProc struct {
	actor
	spec *Chain

	daemon bool
	onExit func(error)

	pc        int
	counters  []int
	task      *Task // the task register: last Get result / SetTask value
	err       error
	done      bool
	blockedOn core.SimcallKind

	exec       *surf.Action // in-flight compute
	sleepTimer *core.Timer  // re-armed across Sleep steps (and reuses)
	rec        *pending     // in-flight/queued Put or Get record, on actor.box

	restartPending bool // killed by host failure, in its host's restart queue
	inRun          bool // the interpreter loop is on the stack
	releasePending bool // terminated inside run(): recycle at loop exit
}

// StartChain starts spec as a processless chain on hostName. It runs
// inline immediately (from time 0 when called before Run, from the
// current instant when called inside the simulation) up to its first
// blocking step. cfg may be nil.
func (env *Environment) StartChain(name, hostName string, spec *Chain, cfg *ChainConfig) (*ChainProc, error) {
	h := env.record(hostName)
	if h == nil {
		return nil, fmt.Errorf("msg: unknown host %q", hostName)
	}
	if spec == nil {
		return nil, errors.New("msg: nil chain")
	}
	c := env.grabChain()
	c.actor = actor{env: env, home: h, name: name, chain: c}
	c.spec = spec
	if cap(c.counters) < spec.numLoops {
		c.counters = make([]int, spec.numLoops)
	} else {
		c.counters = c.counters[:spec.numLoops]
	}
	if cfg != nil {
		c.daemon = cfg.Daemon
		c.autoRestart = cfg.AutoRestart
		c.onExit = cfg.OnExit
		c.OnFailure = cfg.OnFailure
	}
	c.start()
	return c, nil
}

// start begins a life of the chain — its first, or a restart: a fresh
// PID, a place in the live counts and registries, then the program runs
// up to its first blocking step.
func (c *ChainProc) start() {
	env := c.env
	c.pid = env.eng.AllocPID()
	if !c.daemon {
		env.eng.AddLive(1)
	}
	env.liveChains++
	c.enter()
	c.run()
}

// --- ChainProc accessors (valid until termination) ----------------------

// Task returns the task register: the task last received by Get or
// stored by SetTask (nil initially).
func (c *ChainProc) Task() *Task { return c.task }

// SetTask stores t in the task register (for PutReg / ComputeTask).
// Meant for Do callbacks — e.g. allocating one reusable task before an
// infinite send loop.
func (c *ChainProc) SetTask(t *Task) { c.task = t }

// --- interpreter --------------------------------------------------------

// run executes steps from the current pc until the chain blocks (a
// step armed an action, record or timer and will be advanced by its
// completion callback) or terminates. It runs in kernel context; all
// step starters use the same non-blocking kernel paths as the
// goroutine API's fast paths.
//
// Recycling a chain that terminates while this loop is on the stack
// (a Do callback calling Kill, a StopIf firing, the final step) is
// deferred to the loop's exit: scrubbing the struct mid-loop would
// reset done under the loop condition's feet.
func (c *ChainProc) run() {
	c.inRun = true
	c.step()
	c.inRun = false
	if c.releasePending {
		c.releasePending = false
		c.env.releaseChain(c)
	}
}

// step is run's interpreter loop.
func (c *ChainProc) step() {
	steps := c.spec.steps
	for !c.done {
		if c.pc >= len(steps) {
			c.finish(nil)
			return
		}
		st := &steps[c.pc]
		switch st.op {
		case opLoopInit:
			if st.n <= 0 {
				c.counters[st.slot] = -1 // forever
			} else {
				c.counters[st.slot] = st.n
			}
			c.pc++
		case opLoopJump:
			if c.counters[st.slot] < 0 {
				c.pc = st.target
				break
			}
			c.counters[st.slot]--
			if c.counters[st.slot] > 0 {
				c.pc = st.target
			} else {
				c.pc++
			}
		case opDo:
			st.do(c) // may Kill the chain: the loop condition re-checks done
			c.pc++
		case opStopIf:
			if st.pred(c.task) {
				c.finish(nil)
				return
			}
			c.pc++
		case opSleep:
			c.blockedOn = core.SimcallSleep
			if c.sleepTimer == nil {
				c.sleepTimer = c.env.eng.After(st.dur, c.sleepDone)
			} else {
				c.sleepTimer.Rearm(c.env.eng.Now() + st.dur)
			}
			return
		case opCompute:
			if !c.stepCompute(st) {
				return
			}
		case opPut:
			c.stepPut(st)
			return
		case opGet:
			if !c.stepGet(st) {
				return
			}
		}
	}
}

// finish terminates a chain that completed (err nil) or whose step
// failed, under its own power. kill is the external-termination twin.
func (c *ChainProc) finish(err error) {
	if c.done {
		return
	}
	c.done = true
	c.teardown(err)
}

// teardown is the shared termination tail: deregister, report, recycle.
func (c *ChainProc) teardown(err error) {
	c.err = err
	env := c.env
	c.leave(err)
	if !c.daemon {
		env.eng.AddLive(-1)
	}
	env.liveChains--
	if c.onExit != nil {
		c.onExit(err)
	}
	if !c.restartPending {
		if c.inRun {
			c.releasePending = true // run()'s exit recycles
		} else {
			env.releaseChain(c)
		}
	}
}

// kill terminates the chain from outside (Kill API or the host-failure
// sweep), cleaning up whatever it is blocked on. A rendezvous record is
// abandoned exactly like a killed goroutine's: dequeued, or — matched
// and in flight — left to ActionDone while the transfer keeps flowing
// to the peer.
func (c *ChainProc) kill(err error) {
	if c.done {
		return
	}
	c.done = true // guards the reentrant ActionDone from Cancel below
	if a := c.exec; a != nil {
		a.Cancel() // drives c.ActionDone inline, which releases the action
	}
	if r := c.rec; r != nil {
		c.rec = nil
		c.env.abandon(c.box, r)
	}
	c.sleepTimer.Cancel()
	c.teardown(err) // closes the open activity interval, if any
}

// rearm restarts a killed auto-restart chain from step 0 — fresh PID,
// original name/host/spec/flags — when its host recovers (the chain
// half of actor.respawn).
func (c *ChainProc) rearm() {
	c.restartPending = false
	c.done = false
	c.err = nil
	c.pc = 0
	c.task = nil
	c.blockedOn = core.SimcallNone
	for i := range c.counters {
		c.counters[i] = 0
	}
	c.start()
}

// --- step starters ------------------------------------------------------

// stepCompute arms a CPU action. It reports true when the action
// finished inline (the interpreter keeps running) and false when the
// chain blocked or failed.
func (c *ChainProc) stepCompute(st *chainStep) bool {
	flops := st.flops
	if st.useTask {
		if c.task == nil {
			c.finish(errors.New("msg: chain: ComputeTask with empty task register"))
			return false
		}
		flops = c.task.Flops
	}
	a, err := c.env.model.ExecuteHandle(c.home.cpu, flops, 1)
	if err != nil {
		c.finish(err)
		return false
	}
	c.begin(stateCompute)
	if a.Done() {
		cerr := a.Err()
		c.end()
		a.Release()
		if cerr != nil {
			c.finish(cerr)
			return false
		}
		c.pc++
		return true
	}
	c.exec = a
	c.blockedOn = core.SimcallWaitActivity
	a.SetCompletion(c)
	return false
}

// ActionDone implements surf.Completion for the chain's compute
// actions (transfers are completed by pending.ActionDone, which
// advances the chain endpoints through unblock instead).
func (c *ChainProc) ActionDone(a *surf.Action, err error) {
	c.exec = nil
	a.Release()
	if err == ErrHostFailed && !c.done {
		// surf fails a dying host's actions BEFORE HostStateChanged
		// fires: the kill sweep for this very failure runs next and
		// must find the chain alive to kill it (and queue its
		// restart). Park here; the sweep finishes the job.
		c.blockedOn = core.SimcallNone
		c.end()
		return
	}
	c.unblock(nil, err)
}

// sleepDone is the (single, re-armed) sleep timer's callback.
func (c *ChainProc) sleepDone() { c.unblock(nil, nil) }

// unblock ends the chain's current block — compute, sleep or either
// side of a rendezvous — with err and resumes the interpreter: the
// chain half of resuming an actor (actor.advance). A receive hands over
// the task for the register. A chain killed in the meantime (the kill
// canceled the action, teardown already ran) just drops the outcome.
func (c *ChainProc) unblock(task *Task, err error) {
	c.rec = nil
	c.blockedOn = core.SimcallNone
	c.end()
	if c.done {
		return
	}
	if err != nil {
		c.finish(err)
		return
	}
	if task != nil {
		c.task = task
	}
	c.pc++
	c.run()
}

// stepPut arms a rendezvous send on the destination mailbox, exactly
// like the goroutine Put, with the chain itself as the blocked party.
func (c *ChainProc) stepPut(st *chainStep) {
	if c.task == nil {
		c.finish(errors.New("msg: chain: PutReg with empty task register"))
		return
	}
	if r, mb, err := c.sending(c.task, st.dest, st.channel); err != nil {
		c.finish(err)
	} else {
		c.arm(r, mb)
	}
}

// stepGet arms a rendezvous receive on the chain's own host. It reports
// true when an eager put had already delivered the task, which goes to
// the register without blocking (the interpreter keeps running).
func (c *ChainProc) stepGet(st *chainStep) bool {
	mb := c.home.mailbox(st.channel)
	if task := c.env.collect(mb); task != nil {
		c.task = task
		c.pc++
		return true
	}
	r := c.env.grab(recv, &c.actor)
	r.tag = c.pajeC
	c.arm(r, mb)
	return false
}

// arm blocks the chain on r and posts it: enqueue or match, like the
// goroutine rendezvous. No frame will come back for the record, so it is
// ownerless from the start; the transfer's completion advances the chain.
func (c *ChainProc) arm(r *pending, mb *mailbox) {
	r.ownerless = true
	c.rec, c.box = r, mb
	c.blockedOn = dirSimcall[r.dir]
	c.begin(dirState[r.dir])
	if err := c.env.post(mb, r); err != nil {
		c.env.settle(r, err)
	}
}
