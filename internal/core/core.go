// Package core implements the discrete-event simulation kernel
// underlying the whole stack: a virtual clock, a timed-event queue, and
// cooperative scheduling of simulated processes.
//
// Each simulated process runs as a runtime coroutine (the paper's
// "processes in a single address space"; coroutines map directly onto
// SimGrid's ucontexts). One kernel loop, Engine.drive, resumes them one
// at a time in run-queue order and runs the kernel turn itself when
// the queue is empty. This makes runs deterministic and keeps all
// simulation state free of locks. Processes enter the kernel through
// typed simcalls (see simcall.go); a blocking one yields back to the
// loop, several are answered inline without yielding at all.
//
// The resource model (package surf) plugs into the engine through the
// Model interface: the engine asks it for its next completion time,
// advances the clock to the earliest event (model completion or timer),
// lets the model complete its due actions — which wakes the processes
// blocked on them — and fires due timers.
package core

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/instr"
	"repro/internal/simcheck"
)

// State describes a simulated process's lifecycle stage.
type State int

// Process lifecycle states.
const (
	// Created means the process exists but has not run yet.
	Created State = iota
	// Runnable means the process is in the run queue.
	Runnable
	// Running means the process is the one currently executing.
	Running
	// Waiting means the process is blocked in a simcall.
	Waiting
	// Done means the process function returned or the process was killed.
	Done
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Waiting:
		return "waiting"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s)) //lint:allow hot-sprintf cold path: unknown-state debug rendering, never on the activity path
	}
}

// ErrKilled is delivered to a process that is forcibly terminated.
var ErrKilled = errors.New("core: process killed")

// ErrHostFailed is delivered to processes whose current activity was
// aborted by a resource failure.
var ErrHostFailed = errors.New("core: host failed")

// ErrLinkFailed is delivered when a network resource on the activity's
// route failed.
var ErrLinkFailed = errors.New("core: link failed")

// DeadlockError is returned by Run when processes remain but nothing can
// make progress (no pending action, no timer).
type DeadlockError struct {
	// Blocked lists the names of the processes stuck in a simcall.
	Blocked []string
	// Calls lists the typed simcall each blocked process is stuck in,
	// aligned with Blocked.
	Calls []SimcallKind
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("core: simulation deadlocked with %d blocked processes: %v", len(e.Blocked), e.Blocked) //lint:allow hot-sprintf cold path: formatting a fatal diagnostic, the run is already over
}

// killedSignal unwinds a killed process's stack through panic/recover so
// that its defers run even if user code ignores returned errors.
type killedSignal struct{}

// PanicError records a panic: the process that crashed, the panic
// value, and the stack at the point of the panic. A process panic is
// caught on the process's coroutine; with Engine.ContainPanics set it
// becomes the process's termination cause (Process.Err) and is
// collected in Engine.Panics, otherwise it aborts the whole run through
// Run's error. A panic escaping a kernel phase (PID 0, no name) is
// always fatal.
type PanicError struct {
	PID   int
	Name  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.PID == 0 {
		return fmt.Sprintf("core: kernel phase panicked: %v", e.Value) //lint:allow hot-sprintf cold path: formatting a crash diagnostic
	}
	return fmt.Sprintf("core: process %q (pid %d) panicked: %v", e.Name, e.PID, e.Value) //lint:allow hot-sprintf cold path: formatting a crash diagnostic
}

// Model is the engine's resource model (surf.Model), set by SetModel.
// Its one rule: NextEventTime runs the lazy solve, and AdvanceTo, when
// that answer is the next event, follows it with nothing in between.
type Model interface {
	// NextEventTime returns the earliest absolute time at which an
	// action completes, or +Inf if none; idempotent within an instant.
	NextEventTime(now float64) float64
	// AdvanceTo completes every action finishing at t, waking its
	// waiters via Engine.Wake. A step a timer ends first skips it.
	AdvanceTo(now, t float64)
	// Quiet reports that no pending timer can change anything
	// observable (surf: nothing in flight, only periodic trace replays
	// pending), so the run ends as if none were pending.
	Quiet() bool
}

// Process is a simulated process. It must only be manipulated from
// simulation context (inside process functions or timer callbacks).
type Process struct {
	pid  int
	name string
	host any // opaque to the kernel; upper layers store their host here

	engine *Engine
	fn     func(*Process)

	w       *worker // carrier coroutine for the process's lifetime
	state   State
	call    SimcallKind // simcall the process is blocked in
	wakeErr error

	killed      bool
	suspended   bool
	selfSuspend bool   // blocked because it suspended itself
	pendingWake *error // wake that arrived while suspended
	daemon      bool

	// sleepTm is the process's reusable sleep timer: one timer (and one
	// wake closure) per process for its whole lifetime, re-armed on
	// every Sleep. terminate cancels it, so a killed sleeper's wake
	// never moves the clock.
	sleepTm *Timer

	onExit []func(err error)
	err    error // termination cause (nil for normal return)
}

// PID returns the process identifier (unique per engine, starting at 1).
func (p *Process) PID() int { return p.pid }

// SetHost updates the host cookie (process migration).
func (p *Process) SetHost(h any) { p.host = h }

// Engine returns the engine the process belongs to.
func (p *Process) Engine() *Engine { return p.engine }

// Daemonize marks the process as a daemon: the simulation may end while
// daemons are still blocked (they are killed at engine shutdown). The
// paper's infinite-loop servers are daemons in our reproduction.
func (p *Process) Daemonize() {
	if !p.daemon && p.state != Done {
		p.daemon = true
		p.engine.live--
	}
}

// Daemon reports whether the process is a daemon.
func (p *Process) Daemon() bool { return p.daemon }

// OnExit registers fn to run (in kernel context) when the process
// terminates; err is nil for a normal return.
func (p *Process) OnExit(fn func(err error)) { p.onExit = append(p.onExit, fn) }

// SetErr records err as the termination cause of a process whose body
// is about to return: upper layers with error-returning bodies (msg)
// report a failed body through it. A later kill or panic overrides it.
func (p *Process) SetErr(err error) { p.err = err }

// Timer is a scheduled callback, and itself the entry of the engine's
// timer heap: only pending timers are in the heap.
type Timer struct {
	at    float64
	seq   int64
	fn    func()
	index int // heap slot, -1 while not pending
	eng   *Engine
}

// Cancel takes a pending timer out of the event set so it never
// fires. Safe to call on a nil, fired or canceled timer.
func (t *Timer) Cancel() {
	if t != nil && t.index >= 0 {
		heap.Remove(&t.eng.timers, t.index)
	}
}

// Rearm reschedules the timer at absolute time `at` (clamped to the
// current time if in the past), reusing the same timer and callback: a
// fired or canceled timer is pushed back into the event set, a still
// pending one is moved. Periodic drivers (trace events) re-arm one
// timer from inside its own callback instead of allocating a fresh
// closure-carrying timer per event. It is the heap's one push site,
// and panics on a NaN time, which would hide every later timer.
func (t *Timer) Rearm(at float64) {
	e := t.eng
	if math.IsNaN(at) {
		panic("core: timer armed at NaN")
	}
	if at < e.now {
		at = e.now
	}
	t.at = at
	t.seq = e.nextSeq
	e.nextSeq++
	if t.index >= 0 {
		heap.Fix(&e.timers, t.index)
		return
	}
	heap.Push(&e.timers, t)
}

type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	t.index = -1 // out of the heap: Rearm must re-push, not Fix
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// check is the check build's audit of the heap, run every kernel turn:
// each entry's index matches its slot, no key is NaN, and the top is
// the linear (at, seq) minimum.
func (h timerHeap) check() {
	for i, t := range h {
		if t.index != i || math.IsNaN(t.at) || h.Less(i, 0) {
			panic(fmt.Sprintf("core: timer heap broken at slot %d (index %d, at %g)", i, t.index, t.at)) //lint:allow hot-sprintf cold path: check-build diagnostic, the run is over
		}
	}
}

// Engine is the simulation kernel. Create one with New, spawn processes,
// set the model, then call Run.
type Engine struct {
	now     float64
	procs   map[int]*Process
	runQ    []*Process
	runHead int // drain cursor into runQ (in-place queue reuse)
	timers  timerHeap
	model   Model
	nextPID int
	nextSeq int64
	current *Process
	stats   simcallStats

	live      int // non-daemon processes (and external entities) not yet Done
	liveAll   int // all processes not yet Done
	goSpawns  int // fresh carrier coroutines created for this engine
	goPeak    int // high-water mark of liveAll: every live process holds a coroutine
	fatal     error
	running   bool
	stopErr   error // deadlock error recorded by the kernel turn
	idleDrive bool  // RunUntilIdle: no live-process requirement, quiescence ends the run
	stopReq   bool  // Stop was called: the drive loop returns at the next round

	// ExternalBlocked, when set, names the external live entities (see
	// AddLive) that are currently blocked, aligned with the typed call
	// each is stuck in. The kernel consults it only to complete a
	// deadlock report: external entities keep Run going, so when
	// nothing can progress their identities belong in the error next
	// to the blocked processes.
	ExternalBlocked func() (names []string, calls []SimcallKind)

	// ContainPanics, when set, turns a panic in a process body into that
	// process's failure (a *PanicError termination cause, counted in
	// core.fault_panics) instead of aborting the whole run: one buggy
	// actor cannot crash a million-activity simulation. Containment
	// covers process functions only — a panic inside a kernel phase
	// (model code, timer callbacks, completion handlers) leaves the
	// engine mid-turn and is always fatal.
	ContainPanics bool

	panics int // contained process panics

	// Observability (instr.go): optional wall-clock phase profiler
	// (report-only) and the timer heap's high-water mark.
	prof      *instr.Profiler
	timerPeak int
	// Start of the kernel turn's open dispatch span (zero: none open).
	dispatchT0 time.Time
}

// New returns an empty simulation engine at time 0.
func New() *Engine {
	return &Engine{
		procs:   make(map[int]*Process),
		nextPID: 1,
	}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SetModel sets the engine's resource model, replacing any earlier one.
func (e *Engine) SetModel(m Model) { e.model = m }

// Processes returns the live processes sorted by PID.
func (e *Engine) Processes() []*Process {
	out := make([]*Process, 0, len(e.procs))
	for _, p := range e.procs { //lint:allow det-maprange result is sorted by PID below before anything observes it
		if p.state != Done {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pid < out[j].pid })
	return out
}

// Spawn creates a simulated process executing fn. The process starts
// when the engine next schedules it (immediately at the current virtual
// time if the simulation is running). host is an opaque cookie the
// kernel does not interpret.
//
// The carrier coroutine comes from the package-level worker pool when
// one is parked (no stack allocation; Engine.GoroutineSpawns does not
// grow) and is created fresh otherwise — see factory.go for the
// recycle contract.
func (e *Engine) Spawn(name string, host any, fn func(*Process)) *Process {
	p := &Process{
		pid:    e.nextPID,
		name:   name,
		host:   host,
		engine: e,
		fn:     fn,
		state:  Created,
	}
	e.nextPID++
	e.procs[p.pid] = p
	e.live++
	e.liveAll++
	e.goPeak = max(e.goPeak, e.liveAll)

	w := grabWorker()
	if w == nil {
		w = newWorker()
		e.goSpawns++
	}
	w.proc = p
	p.w = w

	p.state = Runnable
	e.runQ = append(e.runQ, p)
	return p
}

// runProcessBody executes a process function on its carrier
// coroutine, converting panics per the containment contract. Kernel
// phases never run on a process stack, so every panic reaching this
// recover came from the process itself.
func runProcessBody(e *Engine, p *Process) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedSignal); ok {
				p.err = ErrKilled
				return
			}
			pe := &PanicError{PID: p.pid, Name: p.name, Value: r, Stack: debug.Stack()}
			if e.ContainPanics {
				// Contained: the panic is this process's failure
				// alone; its defers already ran on the unwind.
				p.err = pe
				e.panics++
				return
			}
			e.fatal = pe
		}
	}()
	p.fn(p)
}

// terminate finalizes a process at the end of its body, on its carrier
// coroutine; the worker loop calls it exactly once per process.
func (e *Engine) terminate(p *Process) {
	p.state = Done
	p.sleepTm.Cancel()
	if !p.daemon {
		e.live--
	}
	e.liveAll--
	for i := len(p.onExit) - 1; i >= 0; i-- {
		p.onExit[i](p.err)
	}
	delete(e.procs, p.pid)
}

// At schedules fn to run in kernel context at absolute virtual time t
// (clamped to the current time if in the past).
func (e *Engine) At(t float64, fn func()) *Timer {
	tm := &Timer{fn: fn, index: -1, eng: e}
	tm.Rearm(t)
	return tm
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) *Timer { return e.At(e.now+d, fn) }

// Wake makes a Waiting process runnable again, delivering err as the
// result of its pending simcall. Waking a suspended process defers
// delivery until Resume. Waking a non-waiting process is a no-op.
func (e *Engine) Wake(p *Process, err error) {
	if p.state != Waiting {
		return
	}
	if p.suspended && !p.selfSuspend {
		ec := err
		p.pendingWake = &ec
		return
	}
	p.wakeErr = err
	p.state = Runnable
	e.runQ = append(e.runQ, p)
}

// Kill forcibly terminates the target process. A process killing itself
// unwinds immediately; killing another process takes effect the next
// time that process is scheduled (its pending simcall aborts).
func (p *Process) Kill() {
	if p.state == Done {
		return
	}
	p.killed = true
	e := p.engine
	if e.current == p {
		panic(killedSignal{})
	}
	e.wakeKilled(p)
}

// wakeKilled schedules a killed process that is parked — Waiting, or
// Created and not yet started — so its coroutine can unwind; a Runnable
// one dies when popped from the queue. Unlike Wake it overrides a
// suspension and drops any wake that arrived during it: a stale pending
// error must not shadow ErrKilled if the victim is touched by Resume
// before it is drained.
func (e *Engine) wakeKilled(p *Process) {
	if p.state != Waiting && p.state != Created {
		return
	}
	p.suspended = false
	p.pendingWake = nil
	p.wakeErr = ErrKilled
	p.state = Runnable
	e.runQ = append(e.runQ, p)
}

// Suspend pauses the process. Suspending the current process blocks it
// until Resume; suspending another process prevents it from being
// scheduled (its in-flight action is the owning layer's to freeze).
func (p *Process) Suspend() {
	if p.state == Done || p.suspended {
		return
	}
	p.suspended = true
	if p.engine.current == p {
		p.selfSuspend = true
		_ = p.blockOn(SimcallSuspend)
		p.selfSuspend = false
	}
}

// Resume unpauses a suspended process, delivering any wake-up that
// arrived while it slept.
func (p *Process) Resume() {
	if p.state == Done || !p.suspended {
		return
	}
	p.suspended = false
	e := p.engine
	switch {
	case p.pendingWake != nil:
		err := *p.pendingWake
		p.pendingWake = nil
		e.Wake(p, err)
	case p.selfSuspend:
		e.Wake(p, nil)
	}
}

// Run executes the simulation until no non-daemon process remains,
// Stop is called, or a deadlock is detected. At shutdown, remaining
// daemons are discarded. Run returns a *DeadlockError if blocked
// non-daemon processes can never progress, or the *PanicError of a
// crashing process or kernel phase.
func (e *Engine) Run() error {
	if err := e.drive(false); err != nil {
		return err
	}
	e.shutdownDaemons()
	return e.fatal
}

// drive is the body Run and RunUntilIdle share, and the only place the
// kernel runs: it resumes every runnable process in run-queue order,
// then runs a kernel turn on its own stack, until a turn reports the
// end of the drive.
func (e *Engine) drive(idle bool) error {
	if e.running {
		return errors.New("core: engine already running")
	}
	e.running, e.idleDrive = true, idle
	defer func() { e.running, e.idleDrive = false, false }()
	e.stopErr = nil
	e.stopReq = false
	e.loop(e.kernelTurn)
	e.stopReq = false
	if e.fatal != nil {
		return e.fatal
	}
	return e.stopErr
}

// loop alternates dispatch rounds with calls to turn until turn
// reports false or a fatal error stops the run. Process panics are
// contained on their coroutines (runProcessBody); any panic reaching
// this recover escaped a kernel phase — model code, a timer callback,
// a completion handler or an exit hook — and is the run's fatal error.
func (e *Engine) loop(turn func() bool) {
	defer func() {
		if r := recover(); r != nil {
			e.current = nil
			e.fatal = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	for {
		e.dispatch()
		if e.fatal != nil || !turn() {
			return
		}
	}
}

// RunUntilIdle drives the kernel without requiring any live process:
// model events and timers fire, and any process that does wake is
// scheduled, until nothing remains to simulate or Stop is called. This
// is the drive loop for purely kernel-level workloads — DAG task graphs
// (package simdag) attach surf actions directly, so a simulation of any
// size spawns zero goroutines. Unlike Run, quiescence with pending
// activities never started is not a deadlock: the caller owns the
// notion of completeness. RunUntilIdle may be called repeatedly; each
// call resumes from the current state.
func (e *Engine) RunUntilIdle() error { return e.drive(true) }

// Stop requests the drive loop to return before its next scheduling
// round; At(t, e.Stop) ends a run at t. It is the kernel half of watch
// points: a completion callback (e.g. a watched DAG task finishing)
// calls Stop and RunUntilIdle returns once the current instant has
// settled, leaving the remaining events scheduled — a later
// RunUntilIdle resumes exactly where the simulation stopped. Calling
// Stop outside a run is a no-op for the next run (Run and RunUntilIdle
// clear it on entry).
func (e *Engine) Stop() { e.stopReq = true }

// Spawned returns the number of LOGICAL process starts on this engine:
// every Spawn call plus every external process start registered
// through AllocPID (msg's declarative activity chains). It counts
// starts, not goroutines — pooled-worker reuse and processless chains
// both grow it without creating a stack; GoroutineSpawns counts the
// stacks. Kernel-driven workloads (simdag) assert it stays zero.
func (e *Engine) Spawned() int { return e.nextPID - 1 }

// GoroutineSpawns returns the number of fresh carrier coroutines (each
// a goroutine of its own) created on behalf of this engine's
// processes, as opposed to Spawned's logical starts. With the worker
// pool warm (or a workload expressed as declarative chains) it stays
// at zero while Spawned keeps counting.
func (e *Engine) GoroutineSpawns() int { return e.goSpawns }

// PendingTimers returns the number of timers not yet fired or canceled.
func (e *Engine) PendingTimers() int { return len(e.timers) }

// AllocPID reserves and returns the next process identifier for an
// external logical process — one driven directly by the kernel with no
// goroutine behind it (msg's declarative activity chains). External
// starts share the PID space and the Spawned count with goroutine
// processes, so "logical process starts" means the same thing across
// both forms.
func (e *Engine) AllocPID() int {
	pid := e.nextPID
	e.nextPID++
	return pid
}

// AddLive adjusts the count of live external entities: kernel-driven
// logical processes (msg activity chains) that must keep Run going
// exactly like a live non-daemon process would. Layers register +1 per
// non-daemon entity at start and -1 at its termination. Unlike
// processes, external entities are not killed at shutdown — their
// owner layer tears them down.
func (e *Engine) AddLive(delta int) { e.live += delta }

// kernelTurn advances the simulation once the run queue is empty: it
// finds the next event, advances the clock, completes due model
// actions and fires due timers, which wakes processes onto the run
// queue. It runs on the drive loop's stack and dispatches nothing; it
// reports false when the drive is over.
func (e *Engine) kernelTurn() bool {
	if e.stopReq || (!e.idleDrive && e.live <= 0) {
		return false
	}

	// Phase 2: find the next event. Model.NextEventTime triggers the
	// lazy maxmin solve, so this is the profiler's "solve" phase.
	t0 := e.prof.Begin()
	modelAt := math.Inf(1)
	if e.model != nil {
		modelAt = e.model.NextEventTime(e.now)
	}
	e.prof.End(instr.PhaseSolve, t0)
	if simcheck.On {
		e.timers.check()
	}
	next := modelAt
	e.timerPeak = max(e.timerPeak, len(e.timers))
	if len(e.timers) > 0 && e.timers[0].at < next && (e.model == nil || !e.model.Quiet()) {
		next = e.timers[0].at
	}
	if math.IsInf(next, 1) {
		if e.idleDrive {
			// Quiescence is the normal end of an idle drive: nothing
			// left to simulate, whether or not activities never
			// started (the caller inspects its own task states).
			return false
		}
		var blocked []string
		var calls []SimcallKind
		for _, p := range e.Processes() {
			if !p.daemon {
				blocked = append(blocked, p.name)
				calls = append(calls, p.call)
			}
		}
		if e.ExternalBlocked != nil {
			names, ecalls := e.ExternalBlocked()
			blocked = append(blocked, names...)
			calls = append(calls, ecalls...)
		}
		e.stopErr = &DeadlockError{Blocked: blocked, Calls: calls}
		return false
	}

	// Phase 3: advance the clock and fire everything due at `next`.
	// The model completes its due actions first, and only when it has
	// one due; only then do timers fire, so trace-driven capacity
	// changes at `next` never apply retroactively to [prev, next].
	prev := e.now
	e.now = next
	t0 = e.prof.Begin()
	if modelAt <= e.now {
		e.model.AdvanceTo(prev, e.now)
	}
	e.prof.End(instr.PhaseAdvance, t0)
	t0 = e.prof.Begin()
	for len(e.timers) > 0 && e.timers[0].at <= e.now {
		heap.Pop(&e.timers).(*Timer).fn()
	}
	e.prof.End(instr.PhaseSweep, t0)

	// Phase 1 of the next round is the loop's dispatch, which
	// closes this span when it resumes the first woken process.
	e.dispatchT0 = e.prof.Begin() // zero without a profiler
	return true
}

// shutdownDaemons kills all remaining (daemon) processes so their defers
// and exit hooks run, in one dispatch round that never advances
// virtual time.
func (e *Engine) shutdownDaemons() {
	for _, p := range e.Processes() {
		p.killed = true
		e.wakeKilled(p)
	}
	e.loop(func() bool { return false })
}
