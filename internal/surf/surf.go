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
// (Action.Release), and completion can be delivered through the
// closure-free Completion interface.
package surf

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

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
}

// rttReference normalizes RTT weighting (weight = priority ×
// rttReference / RTT); only relative weights matter.
const rttReference = 1e-3

// DefaultConfig returns the model defaults (CM02-flavoured).
func DefaultConfig() Config {
	return Config{
		BandwidthFactor: 0.92,
		LatencyFactor:   1.0,
		TCPGamma:        4194304,
		WeightByRTT:     true,
	}
}

// Action is a unit of resource consumption in flight: a running
// computation (remaining work in flops), a transfer (remaining bytes),
// or a parallel task (remaining fraction).
type Action struct {
	model *Model
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

	start float64
	seq   int64 // creation order, the final completion-sort tie-break

	// An action has one observer: the Completion an upper layer
	// registered, or the process blocked in Wait.
	compl Completion
	done  bool
	err   error

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

// Done reports whether the action finished (successfully or not).
func (a *Action) Done() bool { return a.done }

// Err returns the failure cause, or nil for success / in flight.
func (a *Action) Err() error { return a.err }

// Wait blocks the calling process until the action completes and
// returns its outcome — the typed wait-activity simcall. An action
// that already completed is answered inline, with no scheduler round
// trip. An action that already has an observer is refused.
func (a *Action) Wait(p *core.Process) error {
	if a.done {
		p.FastSimcall()
		return a.err
	}
	if a.compl != nil {
		return fmt.Errorf("surf: action %q already has a waiter", a.name)
	}
	a.compl = (*waiter)(p)
	return p.BlockOn(core.SimcallWaitActivity)
}

// waiter is a process blocked in Action.Wait: the action's Completion,
// whose ActionDone wakes it with the outcome.
type waiter core.Process

func (w *waiter) ActionDone(_ *Action, err error) {
	p := (*core.Process)(w)
	p.Engine().Wake(p, err)
}

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

// Cancel aborts the action, delivering ErrCanceled to its observer.
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
	failErr  error

	// twin is a split-duplex link's second direction: Model.links holds
	// the resource heading to the first of the link's Ends, whose twin
	// heads to the second. nil for every other resource.
	twin *resource

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

	// Free lists (pool.List) for the Action structs released
	// by their owning layer and the resources slices of completed ones
	// (reset, capped so one fat ptask slice does not pin memory): with
	// maxmin's they make the steady-state activity churn allocation-free.
	// A miss carves from the slabs, as does a resolved route.
	resPool    pool.List[[]*resource]
	actPool    pool.List[*Action]
	actSlab    pool.Slab[Action]
	handleSlab pool.Slab[RouteHandle]
	resSlab    pool.Slab[*resource] // actions' first arrays, handles' exact ones
	nameSlab   pool.Slab[byte]      // resource, handle and ptask names (pool.Join)

	// routes is the one cache of resolved routes (RouteHandle), keyed by
	// the pair's shared *platform.Route and dropped wholesale when the
	// platform generation changes.
	routes    map[*platform.Route]*RouteHandle
	routesGen uint64

	nextSeq int64 // action creation counter (completion-sort tie-break)

	// markGen is the current ExecuteParallel dedup generation (see
	// resource.mark).
	markGen uint64

	// Observer is the one host observer (msg installs its actors'),
	// nil when no layer above watches host state.
	Observer    HostObserver
	loops       int              // periodic trace replays (Quiet)
	stateLooped []*platform.Host // hosts with a periodic state trace

	// Observability (instr.go). resList is every resource in creation
	// order — the deterministic walk order for trace emission. trace
	// holds a nil Trace until EnableTrace; heapPeak is a plain
	// always-on field.
	resList  []*resource
	trace    surfTrace
	heapPeak int
}

// HostObserver is the layer above watching host state. HostStateChanged
// is invoked (in kernel context) when a host turns off or on; Watches
// tells Quiet whether a change of h still reaches the observer.
type HostObserver interface {
	HostStateChanged(h *platform.Host, up bool)
	Watches(h *platform.Host) bool
}

// New builds the resource model for a platform, setting it as the
// engine's model and scheduling all trace events.
func New(eng *core.Engine, pf *platform.Platform, cfg Config) *Model {
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
			execName: pool.Join(&m.nameSlab, "exec@", h.Name),
			nominal:  h.Power,
			avail:    1,
			on:       true,
			isHost:   true,
			host:     h,
			failErr:  ErrHostFailed,
		}
		r.cnst = m.sys.NewConstraint(r.nominal)
		m.cpus[h.Name] = r
		m.resList = append(m.resList, r)
		m.scheduleTraces(r, h.Availability, h.StateTrace)
	}
	for _, l := range pf.Links() {
		mk := func(name string) *resource {
			r := &resource{
				name:    name,
				nominal: l.Bandwidth * cfg.BandwidthFactor,
				avail:   1,
				on:      true,
				failErr: ErrLinkFailed,
			}
			r.cnst = m.sys.NewConstraint(r.nominal)
			if l.Policy == platform.Fatpipe {
				m.sys.SetShared(r.cnst, false)
			}
			m.resList = append(m.resList, r)
			m.scheduleTraces(r, l.BandwidthTrace, l.StateTrace)
			return r
		}
		if a, b, ok := l.Ends(); ok {
			// One independent constraint per direction, named after
			// the node it heads to.
			r := mk(pool.Join(&m.nameSlab, l.Name, "->", a))
			r.twin = mk(pool.Join(&m.nameSlab, l.Name, "->", b))
			m.links[l.Name] = r
		} else {
			m.links[l.Name] = mk(l.Name)
		}
	}
	eng.SetModel(m)
	return m
}

// Engine returns the engine the model is attached to.
func (m *Model) Engine() *core.Engine { return m.eng }

// Platform returns the simulated platform.
func (m *Model) Platform() *platform.Platform { return m.pf }

// HostUp reports whether a host is currently on.
func (m *Model) HostUp(name string) bool {
	r := m.cpus[name]
	return r != nil && r.on
}

// LinkUp reports whether a link is currently on (both directions, for
// split-duplex links).
func (m *Model) LinkUp(name string) bool { //lint:allow api-rent read by faults TestInjectorFlipsState and TestSameInstantReplayOrder
	r := m.links[name]
	return r != nil && r.on && (r.twin == nil || r.twin.on)
}

// HostHandle is a resolved compute placement: callers that start many
// executions on the same host (simdag tasks, schedulers) fetch it once
// and skip the per-call name lookup. It is the host's resource under
// an exported name, so handles are shared, cost nothing to keep and
// stay valid for the model's lifetime.
type HostHandle resource

// HostHandle resolves a host name to its shared placement handle, or
// nil for an unknown host.
func (m *Model) HostHandle(name string) *HostHandle {
	return (*HostHandle)(m.cpus[name])
}

// ExecuteHandle starts a computation of the given amount of flops on
// the host of a placement handle; an unknown host's nil handle and a
// NaN amount, which would hide every later event in the heap, are
// refused.
func (m *Model) ExecuteHandle(h *HostHandle, flops, priority float64) (*Action, error) {
	if h == nil || h.cnst == nil {
		return nil, fmt.Errorf("surf: nil host handle")
	}
	if math.IsNaN(flops) {
		return nil, fmt.Errorf("surf: NaN amount")
	}
	r := (*resource)(h)
	if !(priority > 0) { // NaN too
		priority = 1
	}
	a := m.newAction(r.execName)
	a.remaining = flops
	a.priority = priority
	if !r.on {
		m.complete(a, ErrHostFailed)
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

// routeResources resolves the resources a route crosses: for a
// split-duplex link, the direction the route takes it in.
func (m *Model) routeResources(route *platform.Route) ([]*resource, error) {
	out := m.resSlab.Make(len(route.Links))
	for i, l := range route.Links {
		r := m.links[l.Name]
		if r != nil && route.Dir(i) == 1 {
			r = r.twin
		}
		if r == nil {
			return nil, fmt.Errorf("surf: route uses unknown link %q", l.Name)
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
	lat   float64 // the route's latency, before LatencyFactor
	gen   uint64  // platform generation the entry was resolved under
}

// RouteHandle resolves an ordered host pair to its shared transfer
// handle: unknown hosts or a missing route are reported immediately.
// A repeat lookup costs two map hits (the platform's route table, this
// model's handle by the pair's *Route) and no allocation; a caller that
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
	rs, err := m.routeResources(route)
	if err != nil {
		return nil, err
	}
	h := m.handleSlab.New()
	*h = RouteHandle{route: route, rs: rs, name: pool.Join(&m.nameSlab, "comm ", src, "->", dst), lat: route.Latency(), gen: gen}
	m.routes[route] = h
	return h, nil
}

// CommunicateHandle starts a transfer of the given number of bytes
// over a route handle. The transfer pays the route latency first, then
// shares bandwidth on every crossed link (the traversed direction only,
// for split-duplex links), bounded by the TCP window cap. A kept handle
// costs one generation compare; one that outlived a topology mutation
// refreshes itself from the current entry. A NaN amount is refused.
func (m *Model) CommunicateHandle(h *RouteHandle, bytes float64) (*Action, error) {
	if h == nil {
		return nil, fmt.Errorf("surf: nil route handle")
	}
	if math.IsNaN(bytes) {
		return nil, fmt.Errorf("surf: NaN amount")
	}
	if h.gen != m.pf.Generation() {
		cur, err := m.RouteHandle(h.route.Src, h.route.Dst)
		if err != nil {
			return nil, err
		}
		*h = *cur
	}
	lat := h.lat * m.cfg.LatencyFactor
	a := m.newAction(h.name)
	a.remaining = bytes
	a.priority = 1
	a.latUntil = a.start + lat
	if m.cfg.TCPGamma > 0 && lat > 0 {
		a.bound = m.cfg.TCPGamma / (2 * h.lat)
	}
	if m.cfg.WeightByRTT && h.lat > 0 {
		a.weightMul = rttReference / h.lat
	}
	if len(h.route.Links) == 0 {
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
			m.complete(a, ErrLinkFailed)
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
// from hosts[i] to hosts[j]. The remaining work is the task fraction
// (1 → 0), consumed proportionally on each resource. NaN is refused.
func (m *Model) ExecuteParallel(hosts []string, flops []float64, bytes [][]float64) (*Action, error) {
	if len(flops) != len(hosts) {
		return nil, fmt.Errorf("surf: ExecuteParallel: %d hosts but %d flop amounts", len(hosts), len(flops))
	}
	if bytes != nil && len(bytes) != len(hosts) {
		return nil, fmt.Errorf("surf: ExecuteParallel: bad bytes matrix")
	}
	a := m.newAction(pool.Join(&m.nameSlab, "ptask(", strconv.Itoa(len(hosts)), " hosts)"))
	a.remaining = 1
	a.priority = 1
	a.v = m.sys.NewVariable(1, 0)
	a.v.Data = a
	a.resources = m.grabResources()
	// Claim each resource once per expansion via the generation mark —
	// deterministic (claim order is host/matrix walk order) and free of
	// the per-call set allocation a map would cost. A resource that is
	// down fails the action instead (use reports false).
	m.markGen++
	use := func(r *resource, amount float64) bool {
		if !r.on {
			m.complete(a, r.failErr)
			return false
		}
		m.sys.Expand(r.cnst, a.v, amount)
		if r.mark != m.markGen {
			r.mark = m.markGen
			a.resources = append(a.resources, r)
		}
		return true
	}
	// reject unwinds a validation error: no action is handed out, so
	// the finished struct goes back to the free list.
	reject := func(err error) (*Action, error) {
		m.complete(a, err)
		m.poolAction(a)
		return nil, err
	}
	for i, hn := range hosts {
		r, ok := m.cpus[hn]
		if !ok {
			return reject(fmt.Errorf("surf: unknown host %q", hn))
		}
		if math.IsNaN(flops[i]) {
			return reject(fmt.Errorf("surf: NaN amount"))
		}
		if flops[i] <= 0 {
			continue
		}
		if !use(r, flops[i]) {
			return a, nil
		}
	}
	for i := range bytes {
		if len(bytes[i]) != len(hosts) {
			return reject(fmt.Errorf("surf: ExecuteParallel: bytes row %d has %d entries, want %d", i, len(bytes[i]), len(hosts)))
		}
		for j := range bytes[i] {
			if math.IsNaN(bytes[i][j]) {
				return reject(fmt.Errorf("surf: NaN amount"))
			}
			if i == j || bytes[i][j] <= 0 {
				continue
			}
			h, err := m.RouteHandle(hosts[i], hosts[j])
			if err != nil {
				return reject(err)
			}
			for _, r := range h.rs {
				if !use(r, bytes[i][j]) {
					return a, nil
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
// when available, else carving one of capacity 4.
func (m *Model) grabResources() []*resource {
	if s, ok := m.resPool.Get(); ok {
		return s
	}
	return m.resSlab.Make(4)[:0]
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
// gathered by key and finished in actionCmp order.
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
	if m.trace.Trace != nil {
		m.emitShares(now)
	}
}

// NextEventTime implements core.Model: a heap peek, O(1) after the
// incremental refresh.
func (m *Model) NextEventTime(now float64) float64 {
	m.refresh()
	m.heapPeak = max(m.heapPeak, len(m.heap))
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
// gathered with a pruned DFS (equal keys are a parent-closed prefix),
// each due action is removed with one sift and classified, the ones
// still in flight go back with one sift each, and the finished actions
// are completed in one sweep. The DFS order is load-bearing: it is the
// order latency ends reach maxmin, which sums in that order.
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
	finished := m.finBuf[:0]
	repush := m.repushBuf[:0]
	for _, a := range due {
		m.heap.remove(a.heapIdx)
		finished, repush = m.classifyDue(a, t, finished, repush)
	}
	for _, a := range repush {
		m.heap.push(a)
	}
	// Deterministic completion order (by start time then name), one
	// action at a time: a completion handler may observe — or cancel —
	// siblings finishing at the same instant.
	slices.SortFunc(finished, actionCmp)
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

// actionCmp is the deterministic completion order: start time, then
// name, then creation sequence. The final tie-break makes the order
// total, so it is independent of how the due set was gathered and of
// sort stability.
func actionCmp(x, y *Action) int {
	if c := cmp.Compare(x.start, y.start); c != 0 {
		return c
	}
	if c := strings.Compare(x.name, y.name); c != 0 {
		return c
	}
	return cmp.Compare(x.seq, y.seq)
}

// complete finishes an action (err == nil for success) and notifies
// its observer. It is the only function that finishes an action.
func (m *Model) complete(a *Action, err error) {
	if a.done {
		return
	}
	a.syncProgress(m.eng.Now()) // freeze Remaining at the failure point
	a.done = true
	a.err = err
	if a.v != nil {
		m.sys.RemoveVariable(a.v)
		a.v = nil
	}
	if a.heapIdx >= 0 {
		m.heap.remove(a.heapIdx)
	}
	m.releaseResources(a)
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
	if m.trace.Trace != nil {
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
		slices.SortFunc(victims, actionCmp)
		for _, a := range victims {
			m.complete(a, r.failErr)
		}
	}
	if r.isHost && m.Observer != nil {
		m.Observer.HostStateChanged(r.host, up)
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
func (m *Model) FailLink(name string) error { return m.setLinkState(name, false) }

// RestoreLink turns a failed link back on (both directions).
func (m *Model) RestoreLink(name string) error { return m.setLinkState(name, true) }

// setLinkState turns every direction of a link off or on, a
// split-duplex link's two in the order of their names (the nodes they
// head to), whatever order its edge declared them in.
func (m *Model) setLinkState(name string, up bool) error {
	r := m.links[name]
	if r == nil {
		return fmt.Errorf("surf: unknown link %q", name)
	}
	rs := [2]*resource{r, r.twin}
	if r.twin != nil && r.twin.name < r.name {
		rs[0], rs[1] = r.twin, r
	}
	for _, r := range rs {
		if r != nil {
			m.setResourceState(r, up)
		}
	}
	return nil
}
