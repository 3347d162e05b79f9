// Package msg implements the paper's MSG interface: a convenient,
// standard abstraction for prototyping distributed algorithms.
//
// Applications consist of processes running on simulated hosts.
// Processes can be created, suspended, resumed and terminated
// dynamically, and synchronize by exchanging tasks. A task carries a
// communication payload (bytes, simulated on the network) and an
// execution payload (flops, simulated on the host CPU), plus an
// arbitrary Data pointer — all processes share one address space, so
// passing Go values through tasks is free, like the paper's "convenient
// communication via global data structure".
//
// Tasks move between processes through channels attached to hosts
// (Put(task, host, channel) / Get(channel)), mirroring the MSG_task_put
// / MSG_task_get API of the paper's client/server example.
//
// Key invariant: each side of a Put/Get rendezvous owns exactly one
// pending record, the pair one surf transfer action, all recycled
// through free lists on the blocking call's return — the steady-state
// exchange loop allocates nothing (see DESIGN.md, "Object lifecycle &
// pooling").
package msg

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/surf"
)

// Errors returned by MSG operations.
var (
	// ErrTimeout reports that a Get or Put timed out.
	ErrTimeout = errors.New("msg: operation timed out")
	// ErrHostFailed reports that the local or remote host failed.
	ErrHostFailed = surf.ErrHostFailed
	// ErrKilled reports the peer process was killed mid-rendezvous.
	ErrKilled = core.ErrKilled
)

// Task is the unit of work and of communication: it carries an
// execution payload (Flops) and a communication payload (Bytes).
type Task struct {
	Name  string
	Flops float64 // execution payload ("30.0 MFlop" in the paper)
	Bytes float64 // communication payload ("3.2 MB" in the paper)
	Data  any     // free cross-process payload (shared address space)

	source *platform.Host // filled in by Put
	sender *Process
}

// NewTask builds a task. Negative payloads are clamped to zero.
func NewTask(name string, flops, bytes float64) *Task {
	if flops < 0 {
		flops = 0
	}
	if bytes < 0 {
		bytes = 0
	}
	return &Task{Name: name, Flops: flops, Bytes: bytes}
}

// Source returns the host the task was sent from (nil before Put).
func (t *Task) Source() *platform.Host { return t.source }

// Sender returns the process that sent the task (nil before Put).
func (t *Task) Sender() *Process { return t.sender } //lint:allow api-rent MSG_task_get_sender; msg TestTaskCreation

// Process is a simulated application process bound to a host: the
// goroutine form of an actor (actor.go), its body a Go function.
type Process struct {
	actor
	cp   *core.Process
	exec *surf.Action         // in-flight execution, for suspend propagation
	fn   func(*Process) error // original body, kept for auto-restart
}

// Environment owns a simulated platform and the processes running on
// it: it is the MSG world (MSG_global_init + MSG_main).
type Environment struct {
	eng   *core.Engine
	model *surf.Model

	// hosts is the one thing looked up by host name: a record per host an
	// actor has run on or sent to. Actors hold their own host's and their
	// last destination's, so the steady state looks nothing up.
	hosts map[string]*hostRec

	// liveChains counts the running chains (chain.go): no goroutine stands
	// for them in the kernel's own accounting.
	liveChains int

	// Free lists (pool.List) for the rendezvous churn: pending
	// records, one list per direction so each keeps its own LIFO order
	// and scoreboard, and terminated ChainProcs. A miss carves from the
	// slabs, as does a mailbox's first queue array.
	pools     [2]pool.List[*pending]
	chainPool pool.List[*ChainProc]
	pendSlab  pool.Slab[pending]
	chainSlab pool.Slab[ChainProc]
	queueSlab pool.Slab[[1]*pending]

	// RestartOnRecovery, when set, queues every process killed by a host
	// failure for respawn at that host's recovery, regardless of the
	// per-process SetAutoRestart flag (the simgrid-run -faults switch).
	RestartOnRecovery bool

	// Observability (instr.go): optional Paje trace band, mailbox
	// backlog counters and Retry re-attempts. The counters are plain
	// always-on fields; trace is nil until EnableTrace.
	trace      *msgTrace
	queued     [2]int // records waiting on a mailbox, per direction
	queuedPeak int
	retries    uint64
}

// hostRec is what MSG keeps per host, in one allocation with the mailbox
// of the first channel used on it — for most hosts the only one.
type hostRec struct {
	host    *platform.Host
	cpu     *surf.HostHandle // nil for a host added after the model was built
	box     mailbox          // channel boxCh's, once boxUsed
	boxCh   int
	boxUsed bool
	more    map[int]*mailbox // the other channels
	actors  []*actor         // alive here, both forms; actor.slot indexes it
	restart []*actor         // killed by the host's failure, to respawn at its recovery, in kill (PID) order
}

// record returns a host's record, made on first use, or nil for a name
// the platform does not know.
func (env *Environment) record(name string) *hostRec {
	h := env.hosts[name]
	if h == nil {
		if ph := env.model.Platform().Host(name); ph != nil {
			h = &hostRec{host: ph, cpu: env.model.HostHandle(name)}
			env.hosts[name] = h
		}
	}
	return h
}

// mailbox returns the host's mailbox for a channel, made on first use.
func (h *hostRec) mailbox(channel int) *mailbox {
	if !h.boxUsed {
		h.boxUsed, h.boxCh = true, channel
	}
	if h.boxCh == channel {
		return &h.box
	}
	mb := h.more[channel]
	if mb == nil {
		if h.more == nil {
			h.more = make(map[int]*mailbox)
		}
		mb = &mailbox{}
		h.more[channel] = mb
	}
	return mb
}

// dir is which way a rendezvous record faces. It indexes the
// per-direction tables: free lists, backlog counters, trace variables.
type dir uint8

const (
	send dir = iota
	recv
)

// What an actor blocked on a record of each direction is doing, as the
// trace and the kernel's deadlock report name it.
var (
	dirState   = [2]string{statePut, stateGet}
	dirSimcall = [2]core.SimcallKind{core.SimcallSend, core.SimcallRecv}
)

// pending is one half of a rendezvous: an actor blocked in Put or Get,
// queued on a mailbox or matched with a peer facing the other way while
// their transfer is in flight. The send half doubles as the transfer's
// completion handler (surf.Completion). Records are recycled through
// the environment's per-direction free lists: a goroutine's rendezvous
// frame releases its record on return, the only point where no queue
// entry, timeout closure or peer can still reach it.
type pending struct {
	env  *Environment
	who  *actor   // the blocked party; nil once it unwound mid-transfer
	task *Task    // send: the payload; recv: filled in at completion
	peer *pending // the matched other half, from transfer start to ActionDone
	// action is the send half's transfer, kept until the record is
	// released so a late timeout sees it ended.
	action *surf.Action
	// tag is the direction's trace string: the message-link key minted at
	// transfer start (send), or the receiver's container, which must
	// outlive a severed who (recv).
	tag string
	dir dir
	// ownerless marks a record no returning rendezvous frame will recycle:
	// a chain's (it has no frame), a parcel (arrive), or one whose
	// goroutine unwound (kill or contained panic) while a delivery was
	// still pending. Whoever ends the block — ActionDone, a failed
	// transfer start, collect — recycles it, after the cross-references
	// are severed.
	ownerless bool
	eager     bool // a PutBuffered send queued with its transfer under way
}

// ActionDone implements surf.Completion on the send half: the transfer
// finished (err is nil on success), so hand the task over and wake both
// parties. The cross-references are severed here: a timeout timer firing
// later in the same instant must fall through to its queue scan (a
// no-op) instead of touching a transfer that already ended — that is
// what makes the rendezvous release point safe. With the references
// severed nothing can reach an ownerless record anymore either, so
// those are recycled right here. The order is the actor's resume rule
// (actor.go): both wakes are queued, then the endpoints advance, sender
// first — but a receiver that attached to an eager put wakes first.
func (ps *pending) ActionDone(_ *surf.Action, cerr error) {
	pr, env := ps.peer, ps.env
	if pr == nil {
		env.arrive(ps, cerr)
		return
	}
	if cerr == nil {
		pr.task = ps.task
	}
	if mt := env.trace; mt != nil && ps.tag != "" && pr.tag != "" {
		mt.Trace.EndLink(env.eng.Now(), mt.linkType, mt.Root, pr.tag, ps.task.Name, ps.tag)
	}
	first, second := ps.who, pr.who
	if ps.eager {
		first, second = second, first
	}
	first.wake(cerr)
	second.wake(cerr)
	ps.peer, pr.peer = nil, nil
	env.settle(ps, cerr)
	env.settle(pr, cerr)
}

// arrive ends an eager put no receiver attached to. Delivered, its task
// stays queued on a parcel — an ownerless record with no actor, recycled
// by the receiver that collects it — and the sender's record goes back to
// its frame; lost, the put leaves the queue. The sender resumes with the
// outcome (an unwinding one, canceled by abandon, is not woken).
func (env *Environment) arrive(ps *pending, err error) {
	mb := ps.who.box
	if err != nil {
		env.dequeue(mb, ps)
	} else {
		parcel := env.grab(send, nil)
		parcel.task, parcel.ownerless = ps.task, true
		mb.q[mb.index(ps)] = parcel
	}
	ps.who.wake(err)
}

// collect takes the task off a parcel at the head of a mailbox: a
// receiver meeting an eager put that already arrived does not wait.
func (env *Environment) collect(mb *mailbox) *Task {
	if mb.head == len(mb.q) || mb.q[mb.head].who != nil {
		return nil
	}
	parcel := mb.take(mb.head)
	env.noteQueued(send, -1)
	task := parcel.task
	env.release(parcel)
	return task
}

// settle finishes one side of a block that ended with err once its wake
// is queued: an ownerless record is recycled and its actor advanced (a
// receiver also gets the task). An owned one stays with the woken
// rendezvous frame.
func (env *Environment) settle(r *pending, err error) {
	if !r.ownerless {
		return
	}
	who, task := r.who, r.task
	if r.dir == send {
		task = nil // the sender's register keeps what it held
	}
	env.release(r)
	who.advance(task, err)
}

// mailbox is one FIFO of records. A post matches the head whenever it
// faces the other way, so everything queued faces the same way: senders
// waiting for a receiver, or receivers waiting for a sender, never both.
// Live entries are q[head:]; taken slots are nil.
type mailbox struct {
	q    []*pending
	head int
}

// take removes the live entry q[i], keeping the order of the rest: the
// entries ahead of it shift up one slot and the head advances, so taking
// the head itself moves nothing. Once the dead prefix is at least as
// long as the live part the live part slides down over it — a mailbox
// that drains keeps its backing array, one with a standing backlog
// stays bounded, and the copy is paid for by the takes before it.
func (mb *mailbox) take(i int) *pending {
	r := mb.q[i]
	copy(mb.q[mb.head+1:], mb.q[mb.head:i])
	mb.q[mb.head] = nil
	mb.head++
	if 2*mb.head >= len(mb.q) {
		n := copy(mb.q, mb.q[mb.head:])
		clear(mb.q[n:])
		mb.q, mb.head = mb.q[:n], 0
	}
	return r
}

// index returns where r is among the live entries, or -1.
func (mb *mailbox) index(r *pending) int {
	for i := mb.head; i < len(mb.q); i++ {
		if mb.q[i] == r {
			return i
		}
	}
	return -1
}

// NewEnvironment builds an MSG world on a platform with the given
// network model configuration (surf.DefaultConfig for the paper's
// calibration).
func NewEnvironment(pf *platform.Platform, cfg surf.Config) *Environment {
	eng := core.New()
	// MSG processes are user code: a panic in one is that process's
	// failure (a *core.PanicError with its stack, the error its OnExit
	// receives, counted in core.fault_panics), never the simulation's.
	eng.ContainPanics = true
	env := &Environment{
		eng:   eng,
		model: surf.New(eng, pf, cfg),
		hosts: make(map[string]*hostRec),
	}
	eng.ExternalBlocked = env.blockedChains
	env.model.Observer = (*hostObserver)(env)
	return env
}

// blockedChains names the live non-daemon chains, in PID order, with
// the call each is blocked in. Chains have no goroutine for the kernel
// to count as blocked: its deadlock reports learn of them through this
// hook (Engine.ExternalBlocked).
func (env *Environment) blockedChains() (names []string, calls []core.SimcallKind) {
	var live []*ChainProc
	for _, h := range env.hosts { //lint:allow det-maprange sorted below before any output
		for _, a := range h.actors {
			if a.chain != nil && !a.chain.daemon {
				live = append(live, a.chain)
			}
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].pid < live[j].pid })
	for _, c := range live {
		names = append(names, c.name)
		calls = append(calls, c.blockedOn)
	}
	return names, calls
}

// Engine exposes the underlying kernel (for tests and advanced use).
func (env *Environment) Engine() *core.Engine { return env.eng }

// Model exposes the underlying resource model.
func (env *Environment) Model() *surf.Model { return env.model }

// Now returns the current simulated time in seconds (MSG_get_clock).
func (env *Environment) Now() float64 { return env.eng.Now() }

// HostByName returns a platform host (MSG_get_host_by_name), or nil.
func (env *Environment) HostByName(name string) *platform.Host { //lint:allow api-rent MSG_get_host_by_name; msg TestAccessors
	return env.model.Platform().Host(name)
}

// NewProcess creates a process on a host. fn runs in simulation
// context; returning an error records it as the process's termination
// cause. Processes created before Run start at time 0.
func (env *Environment) NewProcess(name, hostName string, fn func(*Process) error) (*Process, error) {
	h := env.record(hostName)
	if h == nil {
		return nil, fmt.Errorf("msg: unknown host %q", hostName)
	}
	return env.spawn(name, h, fn), nil
}

// spawn is NewProcess on a resolved host.
func (env *Environment) spawn(name string, h *hostRec, fn func(*Process) error) *Process {
	p := &Process{fn: fn}
	p.actor = actor{env: env, home: h, name: name, proc: p}
	p.cp = env.eng.Spawn(name, h.host, func(cp *core.Process) {
		if err := fn(p); err != nil {
			cp.SetErr(err)
		}
	})
	p.pid = p.cp.PID()
	p.enter()
	p.cp.OnExit(p.leave)
	return p
}

// Run executes the simulation until every non-daemon process finished.
// A deadlock (blocked processes that can never progress) is returned as
// *core.DeadlockError.
func (env *Environment) Run() error { return env.eng.Run() }

// --- Process API --------------------------------------------------------

// Sleep suspends execution for d simulated seconds (MSG_process_sleep).
func (p *Process) Sleep(d float64) error { return p.cp.Sleep(d) }

// Daemonize marks the process as a daemon (infinite-loop servers).
func (p *Process) Daemonize() { p.cp.Daemonize() }

// SetAutoRestart opts the process into auto-restart: if it is killed
// by its host failing, a fresh process with the same name, body, and
// flags is respawned when the host recovers. The restart order of
// several victims is their kill (PID) order — deterministic.
func (p *Process) SetAutoRestart(on bool) { p.autoRestart = on } //lint:allow api-rent MSG_process_auto_restart_set; msg TestAutoRestart

// Kill terminates the target process (MSG_process_kill).
func (p *Process) Kill() { p.cp.Kill() } //lint:allow api-rent MSG_process_kill; msg TestKillProcess

// Suspend pauses the target process and freezes its in-flight
// execution (MSG_process_suspend).
func (p *Process) Suspend() { //lint:allow api-rent MSG_process_suspend; msg TestProcessSuspendResumeFreezesExecution
	if p.exec != nil {
		p.exec.Suspend()
	}
	p.cp.Suspend()
}

// Resume unpauses the process (MSG_process_resume).
func (p *Process) Resume() { //lint:allow api-rent MSG_process_resume; msg TestProcessSuspendResumeFreezesExecution
	if p.exec != nil {
		p.exec.Resume()
	}
	p.cp.Resume()
}

// Spawn creates a new process from within the simulation
// (MSG_process_create), starting at the current simulated time.
func (p *Process) Spawn(name, hostName string, fn func(*Process) error) (*Process, error) {
	return p.env.NewProcess(name, hostName, fn)
}

// Migrate moves the process to another host (MSG_process_migrate):
// subsequent Execute and Get calls use the new host's CPU and network
// location. Only the process itself may migrate (call it between
// activities; an in-flight action stays on the old host).
func (p *Process) Migrate(hostName string) error { //lint:allow api-rent MSG_process_migrate; msg TestMigrateChangesExecutionSpeed
	h := p.env.record(hostName)
	if h == nil {
		return fmt.Errorf("msg: unknown host %q", hostName)
	}
	if h == p.home {
		return nil
	}
	p.home.drop(&p.actor)
	p.home = h
	p.peer, p.route = nil, nil // the kept route started at the old host
	p.cp.SetHost(h.host)
	h.add(&p.actor)
	return nil
}

// Execute runs the task's execution payload on the local host
// (MSG_task_execute): Flops of work through the CPU's MaxMin share.
func (p *Process) Execute(task *Task) error {
	return p.ExecuteWithPriority(task, 1)
}

// ExecuteWithPriority is Execute with a MaxMin sharing weight.
func (p *Process) ExecuteWithPriority(task *Task, priority float64) error {
	a, err := p.env.model.ExecuteHandle(p.home.cpu, task.Flops, priority)
	if err != nil {
		return err
	}
	p.exec = a
	p.begin(stateCompute)
	err = a.Wait(p.cp)
	p.end()
	p.exec = nil
	// Wait only returns once the action is final, and it never escaped
	// this frame: recycle it. (A killed process unwinds through Wait's
	// panic instead, leaving the action to the collector.)
	a.Release()
	return err
}

// Put sends a task to (destination host, channel) and blocks until the
// transfer completes (MSG_task_put). The transfer starts when a
// receiver is ready (rendezvous) and its duration is governed by the
// network model across the route between the two hosts.
func (p *Process) Put(task *Task, destHost string, channel int) error {
	return p.PutWithTimeout(task, destHost, channel, 0)
}

// PutWithTimeout is Put aborting with ErrTimeout after timeout seconds
// (<= 0 means no timeout).
func (p *Process) PutWithTimeout(task *Task, destHost string, channel int, timeout float64) error {
	r, mb, err := p.sending(task, destHost, channel)
	if err == nil {
		_, err = p.rendezvous(r, mb, timeout)
	}
	return err
}

// PutBuffered is Put with MPI's eager protocol: unless a receiver waits,
// the transfer starts at once and the call returns when the bytes arrive.
// A Get that comes while they travel attaches and resumes before the
// sender, one that comes after takes the task without blocking. A
// transfer that fails leaves nothing queued.
func (p *Process) PutBuffered(task *Task, destHost string, channel int) error {
	r, mb, err := p.sending(task, destHost, channel)
	if err == nil && (mb.head == len(mb.q) || mb.q[mb.head].dir == send) {
		r.eager, p.box = true, mb
		if err = p.env.startTransfer(r, nil); err != nil {
			p.env.release(r)
		}
	}
	if err == nil {
		_, err = p.rendezvous(r, mb, 0)
	}
	return err
}

// Get receives the next task from the given channel of the local host,
// blocking until one arrives (MSG_task_get).
func (p *Process) Get(channel int) (*Task, error) {
	return p.GetWithTimeout(channel, 0)
}

// GetWithTimeout is Get aborting with ErrTimeout after timeout seconds
// (<= 0 means no timeout).
func (p *Process) GetWithTimeout(channel int, timeout float64) (*Task, error) {
	mb := p.home.mailbox(channel)
	if task := p.env.collect(mb); task != nil {
		return task, nil
	}
	r := p.env.grab(recv, &p.actor)
	r.tag = p.pajeC
	return p.rendezvous(r, mb, timeout)
}

// Peek reports what waits on a host's mailbox, changing no queue: n puts,
// or n gets (everything queued faces one way).
func (env *Environment) Peek(host string, channel int) (n int, puts bool) {
	if h := env.record(host); h != nil {
		if mb := h.mailbox(channel); mb.head < len(mb.q) {
			return len(mb.q) - mb.head, mb.q[mb.head].dir == send
		}
	}
	return 0, false
}

// rendezvous posts r on the mailbox and blocks the process until the
// transfer it is matched into ends, or timeout seconds pass. It returns
// the record's task: for a receive, handed over on success only.
func (p *Process) rendezvous(r *pending, mb *mailbox, timeout float64) (*Task, error) {
	env := p.env
	var timer *core.Timer
	// The single release point, on return AND on unwind (kill, contained
	// panic): the timeout timer is canceled first — once canceled its
	// closure can never fire against a recycled record — and the record
	// goes back to the pool, via the abandon path if the unwind left it
	// queued or owning an undelivered transfer.
	unwound := true
	defer func() {
		timer.Cancel() // nil-safe: no timeout, no timer
		if unwound {
			env.abandon(mb, r)
			return
		}
		env.release(r)
	}()
	if timeout > 0 {
		timer = env.eng.After(timeout, func() { env.expire(mb, r) })
	}

	err := env.post(mb, r)
	if err == nil {
		p.begin(dirState[r.dir])
		err = p.cp.BlockOn(dirSimcall[r.dir])
		p.end()
	}
	unwound = false
	return r.task, err
}

// --- Environment internals ----------------------------------------------

// post is one half of the rendezvous, shared by both directions and both
// forms: start the transfer if the mailbox's head faces the other way,
// queue the record otherwise. When the transfer cannot start, the party
// that posted gets the error as the return value (and settles its own
// record); the queued peer is resumed with it right here.
func (env *Environment) post(mb *mailbox, r *pending) error {
	if mb.head == len(mb.q) || mb.q[mb.head].dir == r.dir {
		if mb.q == nil {
			mb.q = env.queueSlab.New()[:0]
		}
		mb.q = append(mb.q, r)
		env.noteQueued(r.dir, 1)
		return nil
	}
	other := mb.take(mb.head)
	env.noteQueued(other.dir, -1)
	ps, pr := r, other
	if r.dir == recv {
		ps, pr = other, r
	}
	if ps.action != nil { // an eager put in flight: the receiver attaches
		ps.peer, pr.peer = pr, ps
		return nil
	}
	err := env.startTransfer(ps, pr)
	if err != nil {
		other.who.wake(err)
		env.settle(other, err)
	}
	return err
}

// startTransfer launches the network action of a matched pair; both
// sides are resumed by ActionDone at completion. The sender's kept route
// (actor.sending) is resolved here, not at Put: a missing one fails the pair
// when it meets, not the sender when it posts. An error (no route,
// malformed route) leaves the records untouched for the caller to fail.
// An eager put starts alone (pr nil), and fails at once if dead on arrival.
func (env *Environment) startTransfer(ps, pr *pending) (err error) {
	from := ps.who
	if from.route == nil {
		if from.route, err = env.model.RouteHandle(from.home.host.Name, from.peer.host.Name); err != nil {
			return err
		}
	}
	a, err := env.model.CommunicateHandle(from.route, ps.task.Bytes)
	if err != nil {
		return err
	}
	ps.action = a
	if pr != nil {
		ps.peer, pr.peer = pr, ps
		if mt := env.trace; mt != nil && ps.who.pajeC != "" {
			ps.tag = "k" + strconv.Itoa(mt.nextKey)
			mt.nextKey++
			mt.Trace.StartLink(env.eng.Now(), mt.linkType, mt.Root, ps.who.pajeC, ps.task.Name, ps.tag)
		}
	}
	switch {
	case !a.Done():
		a.SetCompletion(ps)
	case pr == nil:
		return a.Err()
	default:
		// Already finished (e.g. the route's link is down): defer the
		// delivery one kernel turn so both sides have blocked.
		cerr := a.Err()
		env.eng.After(0, func() { ps.ActionDone(a, cerr) })
	}
	return nil
}

// dequeue takes r out of its mailbox's queue, keeping the order of the
// rest, and reports whether it was queued.
func (env *Environment) dequeue(mb *mailbox, r *pending) bool {
	i := mb.index(r)
	if i < 0 {
		return false
	}
	mb.take(i)
	env.noteQueued(r.dir, -1)
	return true
}

// abandon gives up a record whose owner is going away without its block
// ending: a goroutine unwinding out of rendezvous (killed, or a
// contained panic), or a chain being killed. Three cases: a delivery is
// still pending (matched, ActionDone not yet run) — the transfer keeps
// flowing to the peer, the record is severed from its owner and left
// ownerless for ActionDone to recycle; still queued — dequeue and
// recycle now (an eager put's transfer, with nobody left to deliver it
// for, is canceled: arrive dequeues it); already delivered (or dequeued
// by a timeout) — the scan finds nothing, nothing can reach it, recycle
// now. The caller has already canceled any timeout timer.
func (env *Environment) abandon(mb *mailbox, r *pending) {
	if r.peer != nil {
		r.who, r.ownerless = nil, true
		return
	}
	if r.action != nil {
		r.action.Cancel() // a no-op on one that already ended
	}
	env.dequeue(mb, r)
	env.release(r)
}

// expire is a rendezvous timeout firing: an in-flight transfer is
// canceled, which wakes both sides with ErrCanceled; a record still
// queued is taken out and its owner woken with ErrTimeout.
func (env *Environment) expire(mb *mailbox, r *pending) {
	ps := r
	if r.dir == recv {
		ps = r.peer
	}
	if ps != nil && ps.action != nil {
		ps.action.Cancel() // a no-op on one that already ended
		return
	}
	if env.dequeue(mb, r) {
		r.who.wake(ErrTimeout)
	}
}
