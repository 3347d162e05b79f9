// Package surf implements the virtual platform simulation layer of the
// stack (the paper's SURF component): CPU and network resource models
// based on the unifying MaxMin-fairness sharing model, multi-hop
// communications, trace-driven availability variations, and transient
// resource failures.
//
// All resources live in a single MaxMin system, so computations,
// communications and parallel tasks can share and interfere exactly as
// the paper describes ("Used for computation and communication
// resources […] Interference of communication and computation […]
// Parallel tasks").
//
// The network model follows SimGrid's CM02 fluid TCP model: a transfer
// first pays the route latency (scaled by LatencyFactor), then receives
// a MaxMin share of every crossed link's bandwidth (scaled by
// BandwidthFactor), capped by the TCP window bound TCPGamma / (2·RTT).
//
// Progress bookkeeping is lazy (the key invariant of the event heap):
// an action's remaining work is exact only as of its last rate change,
// and the heap is keyed on absolute completion estimates, so advancing
// virtual time costs nothing for untouched actions (see latUntil /
// estFinish). Steady-state churn is allocation-free: Action structs,
// their resources slices and their maxmin variables are free-listed
// (Action.Release, -tags=nopool to disable), and completion can be
// delivered through the closure-free Completion interface.
package surf

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/maxmin"
	"repro/internal/platform"
	"repro/internal/pool"
)

// Errors delivered to processes waiting on failed or canceled actions.
var (
	// ErrCanceled is delivered when an action is canceled explicitly.
	ErrCanceled = errors.New("surf: action canceled")
	// ErrHostFailed is delivered when the host running a computation
	// turns off (state trace).
	ErrHostFailed = core.ErrHostFailed
	// ErrLinkFailed is delivered when a link on a transfer's route
	// turns off.
	ErrLinkFailed = core.ErrLinkFailed
)

// Config tunes the fluid network model.
type Config struct {
	// BandwidthFactor scales nominal link bandwidth to usable payload
	// throughput (TCP/IP header and dynamics overhead). SimGrid's CM02
	// uses 0.92 against real testbeds; our packet-level comparator
	// exhibits a similar payload efficiency.
	BandwidthFactor float64
	// LatencyFactor scales nominal route latency (TCP connection and
	// slow-start warmup overhead folded into a constant).
	LatencyFactor float64
	// TCPGamma is the maximum TCP window size in bytes; a flow's rate
	// is bounded by TCPGamma / (2 · RTT). SimGrid's default is 4 MiB.
	TCPGamma float64
	// WeightByRTT, when true, scales each flow's MaxMin weight by
	// 1/RTT so that short-RTT flows get proportionally more of a shared
	// bottleneck, reproducing TCP's RTT unfairness (CM02 does this).
	WeightByRTT bool
	// RTTReference normalizes RTT weighting (weight = priority ×
	// RTTReference / RTT); only relative weights matter.
	RTTReference float64
}

// DefaultConfig returns the model defaults (CM02-flavoured).
func DefaultConfig() Config {
	return Config{
		BandwidthFactor: 0.92,
		LatencyFactor:   1.0,
		TCPGamma:        4194304,
		WeightByRTT:     true,
		RTTReference:    1e-3,
	}
}

// ActionKind distinguishes computations from communications.
type ActionKind int

// Action kinds.
const (
	ActionCompute ActionKind = iota
	ActionComm
	ActionParallel
)

func (k ActionKind) String() string {
	switch k {
	case ActionCompute:
		return "compute"
	case ActionComm:
		return "comm"
	case ActionParallel:
		return "parallel"
	default:
		return "unknown"
	}
}

// Action is a unit of resource consumption in flight: a running
// computation (remaining work in flops), a transfer (remaining bytes),
// or a parallel task (remaining fraction).
type Action struct {
	model *Model
	kind  ActionKind
	name  string

	v         *maxmin.Variable
	resources []*resource // for failure propagation

	// Progress bookkeeping is lazy: `remaining` is exact as of
	// `lastSync` only, and is re-integrated (remaining -= rate·Δt)
	// exclusively when the action's rate changes, completes or fails.
	// While the rate is constant the absolute completion estimate
	// `estFinish` is invariant, so advancing virtual time costs nothing
	// for untouched actions.
	remaining float64
	lastSync  float64 // virtual time `remaining` was last integrated to
	latUntil  float64 // absolute end of the latency phase; 0 when paid
	estFinish float64 // absolute completion estimate (+Inf when starved)
	heapIdx   int     // position in the model's event heap; -1 when out
	rate      float64
	priority  float64
	weightMul float64 // RTT-derived weight multiplier (1 for compute)
	bound     float64

	start  float64
	finish float64
	seq    int64 // creation order, the final completion-sort tie-break

	// An action is observed by exactly one of these: the process
	// blocked in Wait, or the Completion registered by an upper layer.
	waiter *core.Process
	compl  Completion
	done   bool
	err    error

	suspended bool
}

// Completion receives an action's completion without a per-action
// closure: a layer whose bookkeeping object outlives the action (msg's
// pending rendezvous, a simdag task) registers itself via
// SetCompletion, so steady-state churn allocates nothing. The handler
// runs in kernel context.
type Completion interface {
	// ActionDone is invoked once when the action finishes; err is nil
	// for success, else the failure cause (ErrCanceled, ErrHostFailed,
	// ErrLinkFailed).
	ActionDone(a *Action, err error)
}

// Kind returns the action kind.
func (a *Action) Kind() ActionKind { return a.kind }

// Name returns the diagnostic name given at creation.
func (a *Action) Name() string { return a.name }

// Remaining returns the remaining work (flops, bytes or fraction).
func (a *Action) Remaining() float64 {
	if a.done || a.latUntil > 0 || a.rate <= 0 {
		return a.remaining
	}
	rem := a.remaining - a.rate*(a.model.eng.Now()-a.lastSync)
	if rem < 0 {
		rem = 0
	}
	return rem
}

// syncProgress integrates the action's progress up to virtual time now
// (a no-op while the latency phase is still being paid, during which
// no work is performed).
func (a *Action) syncProgress(now float64) {
	if a.latUntil <= 0 && a.rate > 0 && now > a.lastSync {
		a.remaining -= a.rate * (now - a.lastSync)
		if a.remaining < 0 {
			a.remaining = 0
		}
	}
	a.lastSync = now
}

// refreshEstimate recomputes the absolute completion estimate from the
// remaining work and current rate; remaining must be synced to now.
func (a *Action) refreshEstimate(now float64) {
	switch {
	case a.remaining <= eps:
		a.estFinish = now
	case a.rate > eps:
		a.estFinish = now + a.remaining/a.rate
	default:
		a.estFinish = math.Inf(1)
	}
}

// Rate returns the currently allocated progress rate.
func (a *Action) Rate() float64 { return a.rate }

// Done reports whether the action finished (successfully or not).
func (a *Action) Done() bool { return a.done }

// Err returns the failure cause, or nil for success / in flight.
func (a *Action) Err() error { return a.err }

// Start returns the virtual time the action was created at.
func (a *Action) Start() float64 { return a.start }

// Finish returns the virtual completion time (valid once Done).
func (a *Action) Finish() float64 { return a.finish }

// Poll implements core.Activity: completion state and outcome, read
// without blocking. An already-completed action is the kernel's
// fast path — its waiter never yields.
func (a *Action) Poll() (bool, error) { return a.done, a.err }

// Attach implements core.Activity: it registers the process the model
// wakes when the action completes.
func (a *Action) Attach(p *core.Process) { a.waiter = p }

// Wait blocks the calling process until the action completes and
// returns its outcome — the typed wait-activity simcall. An action
// that already completed is answered inline, with no scheduler round
// trip. Only one process may wait on an action.
func (a *Action) Wait(p *core.Process) error {
	if a.waiter != nil && !a.done {
		return fmt.Errorf("surf: action %q already has a waiter", a.name)
	}
	return p.WaitActivity(a)
}

// Test reports whether the action completed (and its outcome) without
// ever blocking — a non-blocking fast-path simcall (MSG_task_test /
// MPI_Test flavour).
func (a *Action) Test(p *core.Process) (bool, error) { return p.TestActivity(a) }

// SetCompletion registers h to receive the action's completion. Layers
// needing to wake several processes on one completion (msg's
// sender+receiver) use this instead of Wait. If the action is already
// done the handler fires immediately.
func (a *Action) SetCompletion(h Completion) {
	if a.done {
		h.ActionDone(a, a.err)
		return
	}
	a.compl = h
}

// Release scrubs a finished action and returns it to its model's free
// list for reuse by a future activity. Only the owner that knows no
// other reference survives may call it (msg releases its transfer and
// execution actions, simdag its task actions); the action must not be
// touched afterwards. Releasing an unfinished action is a no-op.
func (a *Action) Release() {
	m := a.model
	if m == nil || !a.done {
		return
	}
	m.releaseResources(a) // normally already nil; belt and braces
	m.poolAction(a)
}

// Cancel aborts the action, delivering ErrCanceled to its waiter.
func (a *Action) Cancel() {
	if !a.done {
		a.model.complete(a, ErrCanceled)
	}
}

// effWeight is the MaxMin weight of the action: its priority scaled by
// the RTT multiplier of the network model.
func (a *Action) effWeight() float64 {
	if a.weightMul > 0 {
		return a.priority * a.weightMul
	}
	return a.priority
}

// SetPriority changes the action's MaxMin sharing weight.
func (a *Action) SetPriority(w float64) {
	if a.done || w <= 0 {
		return
	}
	a.priority = w
	a.applyWeight()
}

// applyWeight hands the action's effective weight to the solver —
// unless it is suspended, or still paying latency: a transfer takes no
// bandwidth share until its latency phase ends, when classifyDue
// applies the weight (a share taken earlier would starve the link's
// other flows while the transfer itself does no work).
func (a *Action) applyWeight() {
	if !a.suspended && a.latUntil <= 0 {
		a.model.sys.SetWeight(a.v, a.effWeight())
	}
}

// Suspend freezes the action: it keeps its resources but receives a
// zero share until Resume.
func (a *Action) Suspend() {
	if a.done || a.suspended {
		return
	}
	a.suspended = true
	a.model.sys.SetWeight(a.v, 0)
}

// Resume unfreezes a suspended action.
func (a *Action) Resume() {
	if a.done || !a.suspended {
		return
	}
	a.suspended = false
	a.applyWeight()
}

// Suspended reports whether the action is currently frozen.
func (a *Action) Suspended() bool { return a.suspended }

// resource wraps a platform element with its MaxMin constraint and
// dynamic state.
type resource struct {
	name     string
	execName string // cached "exec@<host>" action name (hosts only)
	cnst     *maxmin.Constraint
	nominal  float64 // configured capacity (after model factors)
	avail    float64 // current availability scaling in [0,1]
	on       bool
	isHost   bool
	host     *platform.Host
	link     *platform.Link
	failErr  error

	// Trace bookkeeping (instr.go): container alias and last-emitted
	// variable values, so only changed shares hit the trace.
	pajeC    string
	lastUtil float64
	lastSat  float64

	// mark dedups the resource within one ExecuteParallel expansion
	// (compared against Model.markGen): a ptask touching the same link
	// from several byte-matrix cells claims it once, with no per-call
	// set allocation.
	mark uint64
}

func (r *resource) effectiveCapacity() float64 {
	if !r.on {
		return 0
	}
	return r.nominal * r.avail
}

// Model is the SURF resource model: it owns every CPU and link of a
// platform and advances all actions in virtual time. It implements
// core.Model.
type Model struct {
	eng *core.Engine
	pf  *platform.Platform
	cfg Config
	sys *maxmin.System

	cpus  map[string]*resource
	links map[string]*resource

	// heap is both the set of in-flight actions and the future-event
	// index over them ("lazy action management"): a min-heap keyed on
	// each action's next event time, re-keyed incrementally as rates
	// change. NextEventTime peeks it; AdvanceTo pops only due actions.
	heap actionHeap

	finBuf    []*Action // scratch for AdvanceTo's completion sweep
	repushBuf []*Action // scratch for AdvanceTo's re-keyed actions
	dueBuf    []*Action // scratch for the equal-key bulk collect
	idxBuf    []int     // scratch DFS stack for collectDue

	// resPool recycles the resources slices of completed actions: at
	// 100k+ activities the per-action []*resource is a measurable share
	// of the allocation churn (ROADMAP's "allocation pressure at scale").
	// Slices are reset (pointers cleared) when returned, capped so a
	// single fat ptask slice does not pin memory forever.
	resPool pool.List[[]*resource]

	// actPool recycles Action structs released by their owning layer
	// (Action.Release): together with the maxmin variable free list it
	// makes the steady-state activity churn allocation-free. Disabled
	// under -tags=nopool.
	actPool pool.List[*Action]

	// routes is the one cache of resolved routes (RouteHandle), keyed by
	// the shared *platform.Route the platform's own cache hands out: a
	// topology mutation bumps the platform generation, Route returns a
	// fresh pointer, and the stale entries are dropped wholesale at the
	// generation change.
	routes    map[*platform.Route]*RouteHandle
	routesGen uint64

	nextSeq int64 // action creation counter (completion-sort tie-break)

	// markGen is the current ExecuteParallel dedup generation (see
	// resource.mark).
	markGen uint64

	// OnHostStateChange is invoked (in kernel context) when a host
	// turns off or on via its state trace; upper layers use it to kill
	// the processes of failed hosts.
	OnHostStateChange func(host *platform.Host, up bool)

	// Observability (instr.go). resList is every resource in creation
	// order — the deterministic walk order for trace emission. trace is
	// nil until EnableTrace; heapPeak is a plain always-on field.
	resList  []*resource
	trace    *surfTrace
	heapPeak int
}

// New builds the resource model for a platform, registering it with the
// engine and scheduling all trace events.
func New(eng *core.Engine, pf *platform.Platform, cfg Config) *Model {
	m := build(eng, pf, cfg)
	eng.AddModel(m)
	return m
}

// build is New short of the engine registration, so the per-pop
// reference model (batch_test.go) can register its own AdvanceTo.
func build(eng *core.Engine, pf *platform.Platform, cfg Config) *Model {
	if cfg.BandwidthFactor <= 0 {
		cfg.BandwidthFactor = 1
	}
	if cfg.LatencyFactor <= 0 {
		cfg.LatencyFactor = 1
	}
	m := &Model{
		eng:   eng,
		pf:    pf,
		cfg:   cfg,
		sys:   maxmin.NewSystem(),
		cpus:  make(map[string]*resource),
		links: make(map[string]*resource),
	}
	for _, h := range pf.Hosts() {
		r := &resource{
			name:     h.Name,
			execName: "exec@" + h.Name,
			nominal:  h.Power,
			avail:    1,
			on:       true,
			isHost:   true,
			host:     h,
			failErr:  ErrHostFailed,
		}
		r.cnst = m.sys.NewConstraint(r.nominal)
		r.cnst.Data = r
		m.cpus[h.Name] = r
		m.resList = append(m.resList, r)
		m.scheduleTraces(r, h.Availability, h.StateTrace)
	}
	// endpoints of each link in the connection graph, for split-duplex
	// directional constraints (same key scheme as the packet simulator).
	ends := make(map[string][2]string)
	for _, e := range pf.Edges() {
		ends[e.Link.Name] = [2]string{e.A, e.B}
	}
	for _, l := range pf.Links() {
		mk := func(key string) {
			r := &resource{
				name:    key,
				nominal: l.Bandwidth * cfg.BandwidthFactor,
				avail:   1,
				on:      true,
				link:    l,
				failErr: ErrLinkFailed,
			}
			r.cnst = m.sys.NewConstraint(r.nominal)
			r.cnst.Data = r
			if l.Policy == platform.Fatpipe {
				m.sys.SetShared(r.cnst, false)
			}
			m.links[key] = r
			m.resList = append(m.resList, r)
			m.scheduleTraces(r, l.BandwidthTrace, l.StateTrace)
		}
		if ep, ok := ends[l.Name]; ok && l.Policy == platform.SplitDuplex {
			// One independent constraint per direction.
			mk(l.Name + "->" + ep[0])
			mk(l.Name + "->" + ep[1])
		} else {
			mk(l.Name)
		}
	}
	return m
}

// Engine returns the engine the model is attached to.
func (m *Model) Engine() *core.Engine { return m.eng }

// Platform returns the simulated platform.
func (m *Model) Platform() *platform.Platform { return m.pf }

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// HostUp reports whether a host is currently on.
func (m *Model) HostUp(name string) bool {
	r := m.cpus[name]
	return r != nil && r.on
}

// LinkUp reports whether a link is currently on (both directions, for
// split-duplex links).
func (m *Model) LinkUp(name string) bool {
	rs := m.linkResources(name)
	if len(rs) == 0 {
		return false
	}
	for _, r := range rs {
		if !r.on {
			return false
		}
	}
	return true
}

// HostLoad returns the MaxMin usage of a host CPU in flop/s, summed when
// read: at the instant an action completes, before the next solve, it no
// longer counts while the others keep their last solved rates.
func (m *Model) HostLoad(name string) float64 {
	r := m.cpus[name]
	if r == nil {
		return 0
	}
	return r.cnst.Usage()
}

// HostHandle is a resolved compute placement: callers that start many
// executions on the same host (simdag tasks, schedulers) fetch it once
// and skip the per-call name lookup. It is the host's resource under
// an exported name, so handles are shared, cost nothing to keep and
// stay valid for the model's lifetime.
type HostHandle resource

// Name returns the handle's host name.
func (h *HostHandle) Name() string { return h.name }

// HostHandle resolves a host name to its shared placement handle, or
// nil for an unknown host.
func (m *Model) HostHandle(name string) *HostHandle {
	return (*HostHandle)(m.cpus[name])
}

// ExecuteHandle starts a computation of the given amount of flops on
// the host of a placement handle; an unknown host's nil handle is
// refused.
func (m *Model) ExecuteHandle(h *HostHandle, flops, priority float64) (*Action, error) {
	if h == nil || h.cnst == nil {
		return nil, fmt.Errorf("surf: nil host handle")
	}
	r := (*resource)(h)
	if priority <= 0 {
		priority = 1
	}
	a := m.newAction(ActionCompute, r.execName)
	a.remaining = flops
	a.priority = priority
	if !r.on {
		a.done = true
		a.err = ErrHostFailed
		a.finish = a.start
		return a, nil
	}
	a.v = m.sys.NewVariable(priority, 0)
	a.v.Data = a
	m.sys.Expand(r.cnst, a.v, 1)
	a.resources = append(m.grabResources(), r)
	a.refreshEstimate(a.start)
	m.heap.push(a)
	return a, nil
}

// linkResources returns the resources implementing a platform link
// (two for split-duplex links, one otherwise).
func (m *Model) linkResources(name string) []*resource {
	if r, ok := m.links[name]; ok {
		return []*resource{r}
	}
	// Split-duplex: collect the directional keys and sort them, so the
	// order the two constraints are touched in (FailLink, SetBandwidth)
	// is independent of map iteration order.
	var keys []string
	for key, r := range m.links { //lint:allow det-maprange matched keys are sorted below before use
		if r.link != nil && r.link.Name == name && key != name {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	out := make([]*resource, len(keys))
	for i, key := range keys {
		out[i] = m.links[key]
	}
	return out
}

// routeResources resolves the (directed) resources a transfer crosses.
// Split-duplex links resolve to the constraint of the traversed
// direction via the hop-level route.
func (m *Model) routeResources(src, dst string, links []*platform.Link) ([]*resource, error) {
	needHops := false
	for _, l := range links {
		if _, single := m.links[l.Name]; !single {
			needHops = true
			break
		}
	}
	if !needHops {
		out := make([]*resource, len(links))
		for i, l := range links {
			out[i] = m.links[l.Name]
			if out[i] == nil {
				return nil, fmt.Errorf("surf: route uses unknown link %q", l.Name)
			}
		}
		return out, nil
	}
	hops, err := m.pf.HopRoute(src, dst)
	if err != nil {
		return nil, fmt.Errorf("surf: split-duplex route needs hop information: %w", err)
	}
	out := make([]*resource, len(hops))
	for i, h := range hops {
		r := m.links[h.Link.Name+"->"+h.B]
		if r == nil {
			r = m.links[h.Link.Name]
		}
		if r == nil {
			return nil, fmt.Errorf("surf: route uses unknown link %q", h.Link.Name)
		}
		out[i] = r
	}
	return out, nil
}

// RouteHandle is a resolved communication placement (ordered host
// pair): the route, the directed resources it crosses (shared,
// read-only) and the diagnostic "comm src->dst" action name. Every
// transfer goes through one; callers that start many between the same
// endpoints (simdag tasks) keep theirs and skip the lookups per call.
type RouteHandle struct {
	route *platform.Route
	rs    []*resource
	name  string
	gen   uint64 // platform generation the entry was resolved under
}

// Endpoints returns the handle's (src, dst) pair.
func (h *RouteHandle) Endpoints() (src, dst string) { return h.route.Src, h.route.Dst }

// RouteHandle resolves an ordered host pair to its shared transfer
// handle: unknown hosts or a missing route are reported immediately.
// The platform's Route cache hands out one shared *Route per pair and
// generation, so a repeat lookup costs two map hits (the platform's pair
// cache, this model's handle by *Route) and no allocation; a caller that
// keeps the handle (CommunicateHandle) pays neither.
func (m *Model) RouteHandle(src, dst string) (*RouteHandle, error) {
	route, err := m.pf.Route(src, dst)
	if err != nil {
		return nil, err
	}
	gen := m.pf.Generation()
	if m.routes == nil || gen != m.routesGen {
		m.routes = make(map[*platform.Route]*RouteHandle)
		m.routesGen = gen
	}
	if h, ok := m.routes[route]; ok {
		return h, nil
	}
	rs, err := m.routeResources(src, dst, route.Links)
	if err != nil {
		return nil, err
	}
	h := &RouteHandle{route: route, rs: rs, name: "comm " + src + "->" + dst, gen: gen}
	m.routes[route] = h
	return h, nil
}

// CommunicateHandle starts a transfer of the given number of bytes
// over a route handle. The transfer pays the route latency first, then
// shares bandwidth on every crossed link (the traversed direction only,
// for split-duplex links), bounded by the TCP window cap. A kept handle
// costs one generation compare; one that outlived a topology mutation
// refreshes itself from the current entry.
func (m *Model) CommunicateHandle(h *RouteHandle, bytes float64) (*Action, error) {
	if h == nil {
		return nil, fmt.Errorf("surf: nil route handle")
	}
	if h.gen != m.pf.Generation() {
		cur, err := m.RouteHandle(h.route.Src, h.route.Dst)
		if err != nil {
			return nil, err
		}
		*h = *cur
	}
	route := h.route
	lat := route.Latency() * m.cfg.LatencyFactor
	a := m.newAction(ActionComm, h.name)
	a.remaining = bytes
	a.priority = 1
	a.latUntil = a.start + lat
	if m.cfg.TCPGamma > 0 && lat > 0 {
		a.bound = m.cfg.TCPGamma / (2 * route.Latency())
	}
	if m.cfg.WeightByRTT && route.Latency() > 0 {
		ref := m.cfg.RTTReference
		if ref <= 0 {
			ref = 1e-3
		}
		a.weightMul = ref / route.Latency()
	}
	if len(route.Links) == 0 {
		// Intra-host messaging: no network resource crossed, the data
		// "moves" instantly after the (zero) latency.
		a.remaining = 0
	}
	// Weight starts at 0 while the latency is paid; activated when the
	// latency phase ends (or immediately for zero-latency routes).
	w := 0.0
	if lat <= 0 {
		a.latUntil = 0
		w = a.effWeight()
	}
	a.v = m.sys.NewVariable(w, a.bound)
	a.v.Data = a
	a.resources = m.grabResources()
	for _, r := range h.rs {
		if !r.on {
			a.done = true
			a.err = ErrLinkFailed
			a.finish = a.start
			m.sys.RemoveVariable(a.v)
			a.v = nil
			m.releaseResources(a)
			return a, nil
		}
		m.sys.Expand(r.cnst, a.v, 1)
		a.resources = append(a.resources, r)
	}
	a.refreshEstimate(a.start)
	m.heap.push(a)
	return a, nil
}

// ExecuteParallel starts a parallel task consuming CPU on several hosts
// and bandwidth between them simultaneously (SimGrid's "ptask" / L07
// model). flops[i] is the work on hosts[i]; bytes[i][j] the data moved
// from hosts[i] to hosts[j]. The action's remaining work is the task
// fraction (1 → 0), and each resource is consumed proportionally.
func (m *Model) ExecuteParallel(hosts []string, flops []float64, bytes [][]float64) (*Action, error) {
	if len(flops) != len(hosts) {
		return nil, fmt.Errorf("surf: ExecuteParallel: %d hosts but %d flop amounts", len(hosts), len(flops))
	}
	if bytes != nil && len(bytes) != len(hosts) {
		return nil, fmt.Errorf("surf: ExecuteParallel: bad bytes matrix")
	}
	a := m.newAction(ActionParallel, "ptask("+strconv.Itoa(len(hosts))+" hosts)")
	a.remaining = 1
	a.priority = 1
	a.v = m.sys.NewVariable(1, 0)
	a.v.Data = a
	a.resources = m.grabResources()
	// Claim each resource once per expansion via the generation mark —
	// deterministic (claim order is host/matrix walk order) and free of
	// the per-call set allocation a map would cost.
	m.markGen++
	use := func(r *resource, amount float64) error {
		if !r.on {
			return r.failErr
		}
		m.sys.Expand(r.cnst, a.v, amount)
		if r.mark != m.markGen {
			r.mark = m.markGen
			a.resources = append(a.resources, r)
		}
		return nil
	}
	abort := func(err error) (*Action, error) {
		m.sys.RemoveVariable(a.v)
		a.v = nil
		a.done = true
		a.err = err
		a.finish = a.start
		m.releaseResources(a)
		return a, nil
	}
	// reject unwinds a validation error: unlike abort, no action is
	// handed out, so the action struct itself also comes back (on top
	// of the variable and the pooled slice).
	reject := func(err error) (*Action, error) {
		m.sys.RemoveVariable(a.v)
		a.v = nil
		m.releaseResources(a)
		m.poolAction(a)
		return nil, err
	}
	for i, hn := range hosts {
		r, ok := m.cpus[hn]
		if !ok {
			return reject(fmt.Errorf("surf: unknown host %q", hn))
		}
		if flops[i] <= 0 {
			continue
		}
		if err := use(r, flops[i]); err != nil {
			return abort(err)
		}
	}
	for i := range bytes {
		if len(bytes[i]) != len(hosts) {
			return reject(fmt.Errorf("surf: ExecuteParallel: bytes row %d has %d entries, want %d", i, len(bytes[i]), len(hosts)))
		}
		for j := range bytes[i] {
			if i == j || bytes[i][j] <= 0 {
				continue
			}
			h, err := m.RouteHandle(hosts[i], hosts[j])
			if err != nil {
				return reject(err)
			}
			for _, r := range h.rs {
				if err := use(r, bytes[i][j]); err != nil {
					return abort(err)
				}
			}
		}
	}
	if len(a.resources) == 0 {
		// Nothing to do: completes instantly.
		a.remaining = 0
	}
	a.refreshEstimate(a.start)
	m.heap.push(a)
	return a, nil
}

const eps = 1e-9

// grabResources returns an empty resources slice, reusing a pooled one
// when available.
func (m *Model) grabResources() []*resource {
	if s, ok := m.resPool.Get(); ok {
		return s
	}
	return make([]*resource, 0, 4)
}

// releaseResources resets and pools a finished action's resources
// slice. Only call once the action is final (off the heap): failure
// propagation scans the resources of in-flight actions.
func (m *Model) releaseResources(a *Action) {
	s := a.resources
	a.resources = nil
	if cap(s) == 0 || cap(s) > 64 {
		return // nothing to pool / fat ptask slice: let the GC have it
	}
	for i := range s {
		s[i] = nil
	}
	m.resPool.Put(s[:0])
}

// refresh re-solves the MaxMin system if needed, re-integrates the
// progress of exactly the actions whose allocation changed (the
// partial-solve result reported by maxmin.System.Updated), and re-keys
// them in the event heap; every other action keeps its remaining-work
// sync point and absolute completion estimate. When the changed set is
// a large share of the heap (a completion on a contended link moves
// every rate on it) the keys are rewritten in place and the heap rebuilt
// once, instead of one sift per action. The two leave entries of equal
// key in different places; completions cannot tell, their due set being
// gathered by key and finished in actionLess order.
func (m *Model) refresh() {
	if !m.sys.Dirty() {
		return
	}
	m.sys.Solve()
	now := m.eng.Now()
	updated := m.sys.Updated()
	bulk := bulkCheaper(len(updated), len(m.heap))
	for _, v := range updated {
		a, ok := v.Data.(*Action)
		if !ok || a.done {
			continue
		}
		if a.latUntil > 0 {
			// No work is performed while the latency is paid; the
			// estimate is rebuilt (and the action re-keyed) when the
			// bandwidth phase starts.
			a.rate = v.Value()
			continue
		}
		a.syncProgress(now)
		a.rate = v.Value()
		a.refreshEstimate(now)
		if bulk {
			m.heap[a.heapIdx].key = a.eventKey()
		} else {
			m.heap.fix(a.heapIdx)
		}
	}
	if bulk {
		m.heap.heapify()
	}
	if m.trace != nil {
		m.emitShares(now)
	}
}

// NextEventTime implements core.Model: a heap peek, O(1) after the
// incremental refresh.
func (m *Model) NextEventTime(now float64) float64 {
	m.refresh()
	if len(m.heap) > m.heapPeak {
		m.heapPeak = len(m.heap)
	}
	if len(m.heap) == 0 {
		return math.Inf(1)
	}
	return m.heap[0].key
}

// AdvanceTo implements core.Model. Progress bookkeeping is lazy
// (absolute completion estimates), so only the actions with an event
// due at t are touched and every other action keeps its heap position;
// a step that completes nothing costs one heap peek.
//
// Same-instant events are processed as one batch: the due run is
// collected off the heap with a pruned DFS (equal keys are a
// parent-closed prefix, so no per-pop sift), removed in a single
// compaction+heapify when the run is large, and the finished actions
// completed in one sweep — k lock-step completions cost one heap pass
// instead of k interleaved pop/sift cycles.
func (m *Model) AdvanceTo(now, t float64) {
	m.refresh()
	// The slack absorbs the clock's float64 resolution (otherwise the
	// engine would spin on a next-event time that rounds to now);
	// borderline actions collected but not yet due are re-pushed below.
	maxKey := t + eps + 1e-12*(1+t)
	due, stack := m.heap.collectDue(maxKey, m.dueBuf[:0], m.idxBuf)
	m.idxBuf = stack
	if len(due) == 0 {
		return
	}
	m.heap.removeBatch(due)
	finished := m.finBuf[:0]
	repush := m.repushBuf[:0]
	for _, a := range due {
		finished, repush = m.classifyDue(a, t, finished, repush)
	}
	m.heap.bulkPush(repush)
	// Deterministic completion order (by start time then name), one
	// action at a time: a completion handler may observe — or cancel —
	// siblings finishing at the same instant.
	sortActions(finished)
	for _, a := range finished {
		a.remaining, a.lastSync = 0, t
		m.complete(a, nil)
	}
	for i := range finished {
		finished[i] = nil // release completed actions for the collector
	}
	m.finBuf = finished[:0]
	for i := range repush {
		repush[i] = nil
	}
	m.repushBuf = repush[:0]
	for i := range due {
		due[i] = nil
	}
	m.dueBuf = due[:0]
}

// classifyDue routes one due action: a latency-phase action whose
// latency is paid enters the bandwidth-sharing phase re-keyed (it is
// never completed in the same step — its first bandwidth-phase
// estimate is only solved next round — so it always goes back on the
// heap), a finished action joins the completion set, and a borderline
// action collected within the float-resolution slack but not yet due
// goes back untouched. Shared with the per-pop reference in
// batch_test.go so the two cannot drift apart.
func (m *Model) classifyDue(a *Action, t float64, finished, repush []*Action) (fin, rep []*Action) {
	switch {
	case a.latUntil > 0:
		if t >= a.latUntil-eps {
			a.latUntil = 0
			a.lastSync = t
			a.refreshEstimate(t)
			a.applyWeight()
		}
		repush = append(repush, a)
	case a.estFinish <= t+1e-12*(1+t):
		finished = append(finished, a)
	default:
		repush = append(repush, a)
	}
	return finished, repush
}

// actionLess is the deterministic completion order: start time, then
// name, then creation sequence. The final tie-break makes the order
// total, so it is independent of how the due set was gathered (heap
// pops vs bulk collect) and of sort stability.
func actionLess(x, y *Action) bool {
	if x.start != y.start {
		return x.start < y.start
	}
	if x.name != y.name {
		return x.name < y.name
	}
	return x.seq < y.seq
}

func sortActions(actions []*Action) {
	if len(actions) > 32 {
		// Lock-step steps finish thousands of actions at once; the
		// small-batch insertion sort would be quadratic there.
		sort.Slice(actions, func(i, j int) bool {
			return actionLess(actions[i], actions[j])
		})
		return
	}
	for i := 1; i < len(actions); i++ {
		for j := i; j > 0; j-- {
			if actionLess(actions[j], actions[j-1]) {
				actions[j], actions[j-1] = actions[j-1], actions[j]
			} else {
				break
			}
		}
	}
}

// complete finishes an action (err == nil for success) and wakes its
// waiter.
func (m *Model) complete(a *Action, err error) {
	if a.done {
		return
	}
	a.syncProgress(m.eng.Now()) // freeze Remaining at the failure point
	a.done = true
	a.err = err
	a.finish = m.eng.Now()
	if a.v != nil {
		m.sys.RemoveVariable(a.v)
		a.v = nil
	}
	if a.heapIdx >= 0 {
		m.heap.remove(a.heapIdx)
	}
	m.releaseResources(a)
	if a.waiter != nil {
		w := a.waiter
		a.waiter = nil
		m.eng.Wake(w, err)
	}
	// Detach the handler before invoking it: it may Release the action
	// (simdag does), after which the struct belongs to the free list and
	// must not be read again.
	if h := a.compl; h != nil {
		a.compl = nil
		h.ActionDone(a, err)
	}
}

// setResourceState turns a resource on or off, failing in-flight
// actions when it goes down.
func (m *Model) setResourceState(r *resource, up bool) {
	if r.on == up {
		return
	}
	r.on = up
	m.sys.SetCapacity(r.cnst, r.effectiveCapacity())
	if m.trace != nil {
		m.traceResourceState(r, up)
	}
	if !up {
		var victims []*Action
		for _, e := range m.heap {
			for _, ar := range e.a.resources {
				if ar == r {
					victims = append(victims, e.a)
					break
				}
			}
		}
		sortActions(victims)
		for _, a := range victims {
			m.complete(a, r.failErr)
		}
	}
	if r.isHost && m.OnHostStateChange != nil {
		m.OnHostStateChange(r.host, up)
	}
}

// setResourceAvail rescales a resource's capacity (availability trace).
func (m *Model) setResourceAvail(r *resource, avail float64) {
	if avail < 0 {
		avail = 0
	}
	r.avail = avail
	m.sys.SetCapacity(r.cnst, r.effectiveCapacity())
}

// FailHost turns a host off programmatically (equivalent to a state
// trace hitting 0). Useful for failure-injection tests.
func (m *Model) FailHost(name string) error {
	r, ok := m.cpus[name]
	if !ok {
		return fmt.Errorf("surf: unknown host %q", name)
	}
	m.setResourceState(r, false)
	return nil
}

// RestoreHost turns a failed host back on.
func (m *Model) RestoreHost(name string) error {
	r, ok := m.cpus[name]
	if !ok {
		return fmt.Errorf("surf: unknown host %q", name)
	}
	m.setResourceState(r, true)
	return nil
}

// FailLink turns a link off programmatically (both directions).
func (m *Model) FailLink(name string) error {
	rs := m.linkResources(name)
	if len(rs) == 0 {
		return fmt.Errorf("surf: unknown link %q", name)
	}
	for _, r := range rs {
		m.setResourceState(r, false)
	}
	return nil
}

// RestoreLink turns a failed link back on (both directions).
func (m *Model) RestoreLink(name string) error {
	rs := m.linkResources(name)
	if len(rs) == 0 {
		return fmt.Errorf("surf: unknown link %q", name)
	}
	for _, r := range rs {
		m.setResourceState(r, true)
	}
	return nil
}
