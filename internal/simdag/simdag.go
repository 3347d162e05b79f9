// Package simdag implements the paper's fourth user interface, SimDag:
// scheduling of task graphs (DAGs) on a simulated platform, the
// workload class of workflow systems and list-scheduling research.
//
// Unlike MSG/GRAS/SMPI processes, DAG tasks are pure kernel-level
// activities: a scheduled task whose dependencies complete is started
// automatically as a surf action attached through completion callbacks
// — no core.Process is ever spawned, so a 100k-task workflow costs
// zero goroutines and the simulation is driven by the kernel alone
// (core.Engine.RunUntilIdle).
//
// Tasks are typed — computations (flops on a host), end-to-end
// communications (bytes between two hosts), and sequential "no-op"
// synchronization points — and move through the state machine
//
//	NotScheduled → Schedulable → Runnable → Running → Done/Failed
//
// NotScheduled tasks have no placement; Schedule/ScheduleComm makes
// them Schedulable; a Schedulable task whose last dependency finishes
// becomes Runnable and is started by the next same-instant release
// sweep (one batched sweep per instant, however many tasks k
// same-instant completions free); Running tasks own a surf action;
// completion yields Done, and a resource failure (or a failed
// dependency) yields Failed with the dependents cancelled.
package simdag

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/surf"
)

// Errors reported by DAG construction and execution.
var (
	// ErrCycle reports that the dependency graph is not acyclic.
	ErrCycle = errors.New("simdag: dependency cycle")
	// ErrDependencyFailed marks a task cancelled because a (transitive)
	// dependency failed.
	ErrDependencyFailed = errors.New("simdag: dependency failed")
	// ErrBadState reports an operation illegal in the task's state.
	ErrBadState = errors.New("simdag: operation illegal in this state")
	// ErrDuplicate reports an already-declared dependency edge.
	ErrDuplicate = errors.New("simdag: duplicate dependency")
	// ErrHostFailed is re-exported from surf: a compute task's host
	// turned off mid-run (state trace).
	ErrHostFailed = surf.ErrHostFailed
)

// Kind is the task type.
type Kind uint8

// Task kinds.
const (
	// Compute burns flops on one host.
	Compute Kind = iota
	// Comm moves bytes end-to-end between two hosts over the platform's
	// route (latency + MaxMin bandwidth share, like any transfer).
	Comm
	// Seq is a zero-work synchronization point (fan-in/fan-out barrier);
	// it needs no placement and completes the instant it is released.
	Seq
	// Parallel is a ptask (SimGrid's L07 model): one activity consuming
	// CPU on several hosts and bandwidth between them simultaneously,
	// completing when the whole coupled allocation has been delivered.
	Parallel
)

var kindNames = [...]string{"compute", "comm", "seq", "ptask"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// State is a task's position in the lifecycle.
type State uint8

// Task states, in lifecycle order.
const (
	// NotScheduled: created, no placement assigned yet.
	NotScheduled State = iota
	// Schedulable: placement assigned, waiting on dependencies.
	Schedulable
	// Runnable: dependencies satisfied, queued for the release sweep.
	Runnable
	// Running: surf action in flight.
	Running
	// Done: completed successfully.
	Done
	// Failed: resource failure, or a dependency failed (cancelled).
	Failed
)

var stateNames = [...]string{"not-scheduled", "schedulable", "runnable", "running", "done", "failed"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s)) //lint:allow hot-sprintf cold path: unknown-state debug rendering, never on the task path
}

// Task is one node of the DAG. Tasks are carved from the simulation's
// arena, so the struct stays at 176 bytes (TestTaskSize): the small
// fields share one word, a compute's host and a comm's endpoints share
// one placement pair, and a ptask's payload sits behind one pointer.
type Task struct {
	sim       *Simulation
	name      string
	kind      Kind
	state     State
	watched   bool
	waitingOn int32   // predecessors not yet Done
	amount    float64 // flops (Compute) or bytes (Comm)

	// Dependency adjacency. The first edge of each direction is stored
	// inline (pred0/succ0) — most workflow tasks have degree 1, so the
	// common walk is a single field read — and the overflow lives as
	// heads/tails of index-linked lists in the simulation's edge arena
	// (see depEdge): a 100k-edge DAG costs a handful of arena growths
	// instead of two small slice allocations per task. 0 means empty;
	// indices are 1-based.
	pred0, succ0       *Task
	predHead, predTail int32
	succHead, succTail int32

	host, dst string // a compute's host, or a comm's source and destination
	par       *ptask // Parallel payload and placement (ptask.go)

	// Resolved placement handles, filled by Schedule/ScheduleComm so
	// start() touches no string-keyed maps: shared per host / per pair
	// for the model's lifetime.
	execH *surf.HostHandle
	commH *surf.RouteHandle // nil when the pair had no route at schedule time: resolved again at start

	action *surf.Action
	start  float64
	finish float64
	err    error

	indeg int32 // scratch: live in-degree (topoOrder), unresolved inputs (min-min)
	seq   int32 // creation index: the schedulers' table address, tie-break and trace slot
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// Kind returns the task type.
func (t *Task) Kind() Kind { return t.kind }

// State returns the task's lifecycle state.
func (t *Task) State() State { return t.state }

// Amount returns the work payload (flops or bytes).
func (t *Task) Amount() float64 { return t.amount } //lint:allow api-rent SD_task_get_amount; simdag TestLoadDAX

// Host returns the compute placement ("" before Schedule and for the
// other kinds).
func (t *Task) Host() string {
	if t.kind != Compute {
		return ""
	}
	return t.host
}

// Endpoints returns the comm placement ("","" before ScheduleComm and
// for the other kinds).
func (t *Task) Endpoints() (src, dst string) {
	if t.kind != Comm {
		return "", ""
	}
	return t.host, t.dst
}

// Start returns the virtual time the task started running.
func (t *Task) Start() float64 { return t.start }

// Finish returns the virtual completion time (valid once terminal).
func (t *Task) Finish() float64 { return t.finish }

// Err returns the failure cause (nil unless Failed).
func (t *Task) Err() error { return t.err }

// Dependencies returns the task's predecessors (a fresh slice; the
// adjacency itself lives in the simulation's edge arena).
func (t *Task) Dependencies() []*Task { //lint:allow api-rent SD_task_get_parents; simdag TestLoadDOT
	var out []*Task
	for it, p := t.preds(); p != nil; p = it.next() {
		out = append(out, p)
	}
	return out
}

// Dependents returns the task's successors (a fresh slice).
func (t *Task) Dependents() []*Task { //lint:allow api-rent SD_task_get_children; simdag TestHEFTvsMinMinProperty
	var out []*Task
	for it, p := t.succs(); p != nil; p = it.next() {
		out = append(out, p)
	}
	return out
}

// terminal reports whether the task reached Done or Failed.
func (t *Task) terminal() bool { return t.state == Done || t.state == Failed }

// Watch marks the task as a watch point: when it reaches Done or
// Failed, the running Simulate call returns (with the task in its
// result) instead of draining the whole DAG — the caller can inspect,
// reschedule, and call Simulate again to resume.
func (t *Task) Watch() { t.watched = true } //lint:allow api-rent SD_task_watch; simdag TestWatchPointStopsAndResumes

// Schedule assigns a compute (or re-assigns a not-yet-released) task to
// a host, making it Schedulable.
func (t *Task) Schedule(host string) error {
	if t.kind != Compute {
		return fmt.Errorf("simdag: Schedule on %s task %q (want compute)", t.kind, t.name)
	}
	if t.state != NotScheduled && t.state != Schedulable {
		return fmt.Errorf("%w: Schedule on %s task %q", ErrBadState, t.state, t.name)
	}
	h := t.sim.model.HostHandle(host)
	if h == nil {
		return fmt.Errorf("simdag: unknown host %q", host)
	}
	t.host = host
	t.execH = h
	t.state = Schedulable
	return nil
}

// ScheduleComm assigns a communication task's endpoints, making it
// Schedulable. src == dst is legal and models a local (free) transfer.
func (t *Task) ScheduleComm(src, dst string) error {
	if t.kind != Comm {
		return fmt.Errorf("simdag: ScheduleComm on %s task %q (want comm)", t.kind, t.name)
	}
	if t.state != NotScheduled && t.state != Schedulable {
		return fmt.Errorf("%w: ScheduleComm on %s task %q", ErrBadState, t.state, t.name)
	}
	if t.sim.pf.Host(src) == nil {
		return fmt.Errorf("simdag: unknown host %q", src)
	}
	if t.sim.pf.Host(dst) == nil {
		return fmt.Errorf("simdag: unknown host %q", dst)
	}
	t.host, t.dst = src, dst
	// Resolve the route handle eagerly when possible; a pair with no
	// route keeps the nil handle and fails at start time, preserving
	// the "scheduling succeeds, execution fails" contract.
	t.commH, _ = t.sim.model.RouteHandle(src, dst)
	t.state = Schedulable
	return nil
}

// Simulation owns a DAG of tasks and the platform it runs on. Create
// one with New, build the graph, schedule tasks, then call Simulate.
type Simulation struct {
	eng   *core.Engine
	model *surf.Model
	pf    *platform.Platform
	tasks []*Task

	ready      []*Task // Runnable tasks awaiting the release sweep
	draining   bool    // inside startReady: don't arm the sweep
	sweep      *core.Timer
	sweepArmed bool
	depsDirty  bool // an edge was added since the last cycle check
	backEdge   bool // sticky: some edge ran against creation order

	// Reschedule policy (see SetReschedulePolicy): host pool, and the
	// re-armable timer batching one min-min pass per instant.
	reschedHosts []string
	resched      *core.Timer
	reschedArmed bool

	// depEdges is the arena backing every task's dependency lists,
	// walked through depIter. Entries are never removed — tasks live as
	// long as their simulation.
	depEdges depArena

	// taskArena chunk-allocates the Task structs themselves: tasks are
	// only ever created through New*Task and live as long as the
	// simulation, so block allocation keeps a 100k-task DAG to a few
	// dozen allocations and lays tasks out contiguously for the state
	// sweeps. The returned pointers are stable. ptasks carves the ptask
	// payloads the same way, hostSets their host sets and names the
	// generated task names (pool.Join).
	taskArena []Task
	ptasks    pool.Slab[ptask]
	hostSets  pool.Slab[string]
	names     pool.Slab[byte]

	watchHits []*Task
	nDone     int
	nFailed   int

	// Observability: the task band of a Paje trace (nil when off) and
	// the always-on count of failure-diverted reschedules.
	trace       *dagTrace
	reschedules uint64
}

// New builds a DAG simulation on a platform with the given network
// model configuration (surf.DefaultConfig for the paper's calibration).
func New(pf *platform.Platform, cfg surf.Config) *Simulation {
	eng := core.New()
	return &Simulation{
		eng:   eng,
		model: surf.New(eng, pf, cfg),
		pf:    pf,
	}
}

// Engine exposes the underlying kernel (tests, advanced use).
func (s *Simulation) Engine() *core.Engine { return s.eng }

// Model exposes the underlying resource model.
func (s *Simulation) Model() *surf.Model { return s.model }

// Tasks returns the tasks in creation order.
func (s *Simulation) Tasks() []*Task { return s.tasks }

// DoneCount returns the number of tasks that completed successfully.
func (s *Simulation) DoneCount() int { return s.nDone }

// FailedCount returns the number of failed (including cancelled) tasks.
func (s *Simulation) FailedCount() int { return s.nFailed }

// NewTask creates a compute task of the given flops, NotScheduled.
func (s *Simulation) NewTask(name string, flops float64) *Task {
	if flops < 0 {
		flops = 0
	}
	t := s.add()
	t.name, t.kind, t.amount = name, Compute, flops
	return t
}

// NewCommTask creates an end-to-end communication task of the given
// bytes, NotScheduled until ScheduleComm assigns its endpoints.
func (s *Simulation) NewCommTask(name string, bytes float64) *Task {
	if bytes < 0 {
		bytes = 0
	}
	t := s.add()
	t.name, t.kind, t.amount = name, Comm, bytes
	return t
}

// NewSeqTask creates a zero-work synchronization task. It needs no
// placement and is Schedulable from the start.
func (s *Simulation) NewSeqTask(name string) *Task {
	t := s.add()
	t.name, t.kind, t.state = name, Seq, Schedulable
	return t
}

// taskBlockSize is the task-arena growth quantum: as many tasks as fit
// in 320 KiB, whatever the struct's size.
const taskBlockSize = (320 << 10) / unsafe.Sizeof(Task{})

// add carves a fresh task out of the arena (growing it by whole
// blocks) and registers it.
func (s *Simulation) add() *Task {
	if len(s.taskArena) == cap(s.taskArena) {
		s.taskArena = make([]Task, 0, taskBlockSize)
	}
	s.taskArena = s.taskArena[:len(s.taskArena)+1]
	t := &s.taskArena[len(s.taskArena)-1]
	t.sim = s
	t.seq = int32(len(s.tasks))
	s.tasks = append(s.tasks, t)
	return t
}

// depEdge is one arena entry of a task's dependency list: the peer
// task and the 1-based arena index of the next edge in the same list
// (0 terminates). Index links stay valid across arena growth, unlike
// element pointers.
type depEdge struct {
	task *Task
	next int32
}

// depBlockBits sizes the edge-arena blocks (4096 edges ≈ 64 KiB): the
// arena grows by whole blocks, so building a large DAG never copies
// already-stored edges — none of the append-doubling churn a flat
// slice would feed the collector.
const (
	depBlockBits = 12
	depBlockSize = 1 << depBlockBits
)

// depArena is a chunked, append-only store of dependency edges.
type depArena struct {
	blocks [][]depEdge
	n      int32
}

// push stores e and returns its 1-based index.
func (a *depArena) push(e depEdge) int32 {
	b, off := int(a.n)>>depBlockBits, int(a.n)&(depBlockSize-1)
	if off == 0 && b == len(a.blocks) {
		a.blocks = append(a.blocks, make([]depEdge, depBlockSize))
	}
	a.blocks[b][off] = e
	a.n++
	return a.n
}

// at returns the edge stored under 1-based index i.
func (a *depArena) at(i int32) *depEdge {
	i--
	return &a.blocks[i>>depBlockBits][i&(depBlockSize-1)]
}

// depIter walks the arena overflow of one adjacency list. A walk reads
//
//	for it, p := t.preds(); p != nil; p = it.next() { … }
//
// preds/succs hand back the inline first edge with the iterator. It
// re-reads the arena through the simulation on every step, so edges
// appended mid-walk (observer callbacks) are picked up safely.
type depIter struct {
	s *Simulation
	i int32
}

// next returns the next task of the list, or nil at the end.
func (it *depIter) next() *Task {
	if it.i == 0 {
		return nil
	}
	e := it.s.depEdges.at(it.i)
	it.i = e.next
	return e.task
}

func (t *Task) preds() (depIter, *Task) { return depIter{t.sim, t.predHead}, t.pred0 }
func (t *Task) succs() (depIter, *Task) { return depIter{t.sim, t.succHead}, t.succ0 }

// pushEdge appends an edge holding t to the list identified by
// inline/head/tail, preserving insertion order: the first edge lands
// in the inline slot, the rest in the arena.
func (s *Simulation) pushEdge(inline **Task, head, tail *int32, t *Task) {
	if *inline == nil && *head == 0 {
		*inline = t
		return
	}
	idx := s.depEdges.push(depEdge{task: t})
	if *tail != 0 {
		s.depEdges.at(*tail).next = idx
	} else {
		*head = idx
	}
	*tail = idx
}

// AddDependency declares that `after` cannot start before `before`
// completed. It is an error to add a dependency onto a task that
// already left the Schedulable state, or a duplicate edge.
func (s *Simulation) AddDependency(before, after *Task) error {
	if before == after {
		return fmt.Errorf("simdag: task %q cannot depend on itself", before.name)
	}
	if before.sim != s || after.sim != s {
		return errors.New("simdag: tasks belong to a different simulation")
	}
	if after.state != NotScheduled && after.state != Schedulable {
		return fmt.Errorf("%w: dependency onto %s task %q", ErrBadState, after.state, after.name)
	}
	if before.terminal() {
		if before.state == Failed {
			return fmt.Errorf("%w: dependency on failed task %q", ErrBadState, before.name)
		}
		return nil // depending on a Done task is vacuously satisfied
	}
	if after.dependsOn(before) {
		return fmt.Errorf("%w: %q -> %q", ErrDuplicate, before.name, after.name)
	}
	s.pushEdge(&before.succ0, &before.succHead, &before.succTail, after)
	s.pushEdge(&after.pred0, &after.predHead, &after.predTail, before)
	after.waitingOn++
	s.depsDirty = true
	s.backEdge = s.backEdge || before.seq > after.seq
	return nil
}

// dependsOn reports whether p is already one of t's predecessors.
func (t *Task) dependsOn(p *Task) bool {
	it, q := t.preds()
	for q != nil && q != p {
		q = it.next()
	}
	return q != nil
}

// Simulate runs the DAG until nothing can progress further: every
// released task ran to completion (or failure), and any task still
// NotScheduled or waiting on an unfinished dependency is simply left
// in place. It returns the watch-point tasks that reached a terminal
// state during this call (an empty slice when the run drained), so a
// scheduler can interleave decisions with execution: Watch a task,
// Simulate, reschedule, Simulate again. Simulate may be called
// repeatedly; each call resumes from the current virtual time.
func (s *Simulation) Simulate() ([]*Task, error) {
	if err := s.checkCycles(); err != nil {
		return nil, err
	}
	s.watchHits = s.watchHits[:0]
	// The pre-run kick drains synchronously below: suppress the sweep
	// timer a mid-build enqueue would otherwise arm for nothing.
	s.draining = true
	for _, t := range s.tasks {
		if t.state == Schedulable && t.waitingOn == 0 {
			s.enqueue(t)
		}
	}
	s.startReady()
	// A watch point can already fire in the synchronous pre-run drain
	// (a watched Seq task, or a placement on an already-failed host):
	// return before entering the drive loop — RunUntilIdle resets the
	// kernel's stop request on entry and would run the DAG to the end.
	var err error
	if len(s.watchHits) == 0 {
		err = s.eng.RunUntilIdle()
	}
	var hits []*Task
	if len(s.watchHits) > 0 {
		hits = append(hits, s.watchHits...) // copy: the buffer is reused
	}
	return hits, err
}

// Makespan returns the latest finish time over all terminal tasks.
func (s *Simulation) Makespan() float64 {
	m := 0.0
	for _, t := range s.tasks {
		if t.terminal() && t.finish > m {
			m = t.finish
		}
	}
	return m
}

// checkCycles rejects a cyclic graph. The O(V+E) pass is skipped when no
// edge was added since the last one (a watch-point loop stays cheap) and
// while every edge runs in creation order, then a topological order.
func (s *Simulation) checkCycles() error {
	if !s.depsDirty || !s.backEdge {
		return nil
	}
	_, err := s.topoOrder()
	return err
}

// topoOrder is the one Kahn pass: it returns every non-terminal task in
// a topological order (live in-degrees, ready queue drained in creation
// order) or ErrCycle, leaving terminal tasks at indeg -1 and live ones
// at 0.
func (s *Simulation) topoOrder() ([]*Task, error) {
	order := make([]*Task, 0, len(s.tasks))
	live := 0
	for _, t := range s.tasks {
		if t.terminal() {
			t.indeg = -1
			continue
		}
		live++
		t.indeg = 0
		for it, p := t.preds(); p != nil; p = it.next() {
			if !p.terminal() {
				t.indeg++
			}
		}
		if t.indeg == 0 {
			order = append(order, t)
		}
	}
	for i := 0; i < len(order); i++ {
		for it, succ := order[i].succs(); succ != nil; succ = it.next() {
			if succ.indeg > 0 {
				succ.indeg--
				if succ.indeg == 0 {
					order = append(order, succ)
				}
			}
		}
	}
	if len(order) != live {
		return nil, fmt.Errorf("%w involving %d tasks", ErrCycle, live-len(order))
	}
	s.depsDirty = false
	return order, nil
}

// notify hands a task's state transition to the trace band, its one
// observer.
func (s *Simulation) notify(t *Task) {
	if s.trace != nil {
		s.traceTask(t)
	}
}

// enqueue moves a task to Runnable and queues it for the release
// sweep. Same-instant completions share one sweep: the first release
// of the instant arms a single timer at the current time (re-arming
// the same timer object every instant), and the sweep then starts the
// whole batch back-to-back — k lock-step releases cost one timer and
// one contiguous start pass.
func (s *Simulation) enqueue(t *Task) {
	t.state = Runnable
	s.notify(t)
	s.ready = append(s.ready, t)
	if s.draining || s.sweepArmed {
		return
	}
	s.sweepArmed = true
	if s.sweep == nil {
		s.sweep = s.eng.At(s.eng.Now(), func() {
			s.sweepArmed = false
			s.startReady()
		})
	} else {
		s.sweep.Rearm(s.eng.Now())
	}
}

// startReady drains the ready queue, starting every released task.
// Seq tasks complete synchronously and may release further tasks into
// the same drain (their appends are picked up by the index loop), so
// whole chains of synchronization points collapse within one instant.
func (s *Simulation) startReady() {
	s.draining = true
	for i := 0; i < len(s.ready); i++ {
		t := s.ready[i]
		s.ready[i] = nil
		s.start(t)
	}
	s.ready = s.ready[:0]
	s.draining = false
}

// start launches one Runnable task as a surf action (or completes it
// inline for Seq tasks). No process is spawned: the action's
// completion callback drives the DAG.
func (s *Simulation) start(t *Task) {
	if t.state != Runnable {
		return
	}
	t.state = Running
	t.start = s.eng.Now()
	s.notify(t)

	var a *surf.Action
	var err error
	switch t.kind {
	case Seq:
		s.taskFinished(t, nil)
		return
	case Compute:
		a, err = s.model.ExecuteHandle(t.execH, t.amount, 1)
	case Parallel:
		a, err = s.model.ExecuteParallel(t.par.hosts, t.par.flops, t.par.bytes)
	case Comm:
		if t.commH == nil {
			t.commH, err = s.model.RouteHandle(t.host, t.dst)
		}
		if err == nil {
			a, err = s.model.CommunicateHandle(t.commH, t.amount)
		}
	}
	if err != nil {
		s.failTask(t, err)
		return
	}
	t.action = a
	a.SetCompletion(t)
}

// ActionDone implements surf.Completion: the task's action finished,
// drive the DAG. Registering the task itself (instead of a closure)
// keeps a 100k-task run free of per-task callback allocations.
func (t *Task) ActionDone(_ *surf.Action, cerr error) {
	t.sim.taskFinished(t, cerr)
}

// taskFinished is the completion callback: it finalizes the task and
// releases its dependents (success) or cancels them (failure).
func (s *Simulation) taskFinished(t *Task, err error) {
	if err != nil {
		s.failTask(t, err)
		return
	}
	t.state = Done
	t.finish = s.eng.Now()
	if t.action != nil {
		// The action never escapes the task: recycle it (with its
		// variable and resources) for the next task start.
		t.action.Release()
		t.action = nil
	}
	s.nDone++
	s.notify(t)
	s.watch(t)
	for it, succ := t.succs(); succ != nil; succ = it.next() {
		succ.waitingOn--
		if succ.waitingOn == 0 && succ.state == Schedulable {
			s.enqueue(succ)
		}
	}
}

// failTask handles a task failure: under the reschedule policy a
// host-failure victim is diverted back to the scheduler; otherwise the
// failure is terminal.
func (s *Simulation) failTask(t *Task, err error) {
	if s.divert(t, err) {
		return
	}
	s.failTerminal(t, err)
}

// failTerminal marks a task Failed and fails its unfinished dependents
// transitively with ErrDependencyFailed: a workflow with a failed
// branch keeps executing the independent branches, exactly like a
// workflow engine would. A dependent holds no action: it can never be
// Running, its failed predecessor being, by definition, unfinished.
func (s *Simulation) failTerminal(t *Task, err error) {
	t.state = Failed
	t.err = err
	t.finish = s.eng.Now()
	if t.action != nil {
		t.action.Release()
		t.action = nil
	}
	s.nFailed++
	s.notify(t)
	s.watch(t)
	for it, succ := t.succs(); succ != nil; succ = it.next() {
		if !succ.terminal() {
			s.failTerminal(succ, ErrDependencyFailed)
		}
	}
}

// watch fires the watch point: the terminal task is recorded and the
// drive loop is asked to return once the instant settles.
func (s *Simulation) watch(t *Task) {
	if !t.watched {
		return
	}
	s.watchHits = append(s.watchHits, t)
	s.eng.Stop()
}
