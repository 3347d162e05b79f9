// Package maxmin implements the weighted, bounded Max-Min fairness
// solver at the heart of SURF ("allocate as much capacity to all tasks
// in a way that maximizes the minimum capacity allocation over all
// tasks" — SimGrid, HPDC'06).
//
// The model is a linear system: variables (one per simulated activity:
// a TCP flow, a computation, ...) consume capacity on constraints (one
// per resource: a network link, a CPU). A variable x with weight w that
// crosses constraint c contributes w·x to c's load, and c's load must
// not exceed its capacity. Variables may additionally carry an upper
// bound (e.g. the TCP window bound gamma/2RTT).
//
// Solve computes the max-min fair allocation by progressive filling:
// grow all variables' shares together until a variable hits a bound (its
// own, or a constraint only it draws on: a private link, a fatpipe) or a
// shared constraint saturates, freeze those, and repeat on the rest.
// The mutators keep on each variable the tightest of those own caps and
// a chain of its other edges, so neither the walk over a component nor
// a filling round reads a private link.
//
// The solver is incremental (SimGrid's "selective update" / lazy lmm
// optimization): every mutation (Expand, SetWeight, SetCapacity,
// SetShared, RemoveVariable, ...) marks only the touched variables and
// constraints dirty, and Solve re-runs progressive filling only on the
// connected components of the variable/constraint bipartite graph that
// contain a dirty element. Allocations in untouched components are
// carried over unchanged — max-min fairness decomposes exactly per
// component, so the combined solution is identical to a full solve.
// Solve reports the variables whose allocation actually changed via
// Updated, letting callers refresh only the affected activities.
//
// All per-solve bookkeeping lives in storage reused across solves (the
// active set and the component worklist in scratch slices, a round's
// per-constraint quantities on the Constraint itself), so a
// steady-state re-solve performs no heap allocation. The same holds
// for the activity churn itself: RemoveVariable scrubs and free-lists
// the Variable and its constraint elements, and NewVariable/Expand
// reuse them, so the add/solve/remove cycle of a simulated activity is
// allocation-free at steady state (the paper counterpart is SimGrid's
// lmm system, and the key invariant is that pooled and unpooled runs
// are bit-identical).
package maxmin

import (
	"math"

	"repro/internal/pool"
	"repro/internal/simcheck"
)

// Variable is one activity receiving an allocation. Create variables
// with System.NewVariable and attach them to constraints with Expand.
type Variable struct {
	id     int
	weight float64 // sharing weight (a.k.a. priority); 0 disables the variable
	bound  float64 // upper bound on Value; <= 0 means unbounded
	value  float64 // the solution, valid after Solve

	// The solver's summary of cnsts, rebuilt by summarize whenever one of
	// its operands changes: ownR is the ratio at which the tightest own
	// edge binds (+Inf if none can), walk chains (through elem.next, in
	// cnsts order) the edges whose constraint holds more than v.
	ownR float64
	walk *elem

	cnsts []*elem

	// User cookie: the surf action owning this variable.
	Data any

	sys    *System
	idx    int32  // position in sys.vars, maintained under index-swap removal
	dirtyQ int32  // position in sys.dirtyVars; -1 when not queued
	visit  uint64 // component-walk generation mark
}

// elem ties a variable to a constraint with a consumption multiplier.
// Its position in c.elems is tracked so detaching is O(1) per edge.
type elem struct {
	v      *Variable
	c      *Constraint
	factor float64 // capacity consumed per unit of variable value
	cIdx   int     // position in c.elems
	next   *elem   // next edge of v.walk
}

// Constraint is one capacity-limited resource.
type Constraint struct {
	id       int // position in sys.cnsts: constraints are never removed
	capacity float64
	elems    []*elem
	elem0    [1]*elem // elems' first array

	// shared reports whether concurrent variables share the capacity
	// (true, the normal case: links, CPUs) or each may use the full
	// capacity independently (false: SimGrid "fatpipe" links, modelling
	// e.g. the Internet backbone in some platform files).
	shared bool

	sys   *System
	visit uint64 // component-walk generation mark
	dirty bool   // queued in sys.dirtyCnsts

	// Scratch of one progressive-filling round (solveComponent), read
	// through the edge the round already follows: the capacity not yet
	// frozen, the active variables' weighted load and count (nact and sat
	// share dirty's word), the ratio remCap/load, and whether it is minR.
	// certify reuses load and r between solves.
	sat             bool
	nact            int32
	remCap, load, r float64
}

// System holds variables and constraints and solves the allocation.
// The zero value is not usable; call NewSystem.
type System struct {
	vars    []*Variable
	cnsts   []*Constraint
	nextVID int

	// Dirty tracking: mutated elements since the last Solve. allDirty
	// forces the next Solve to recompute every component from scratch.
	dirtyVars  []*Variable
	dirtyCnsts []*Constraint
	allDirty   bool

	visitGen uint64 // current component-walk generation
	dead     bool   // the walked component has an edge of zero capacity
	zeroCaps int    // live constraints of capacity <= eps; at 0 none is dead

	// Scratch storage reused across solves (no steady-state allocation).
	// solveVars/solveCnsts hold one component at a time, so they grow to
	// the largest component, not to the largest dirty scope.
	solveVars  []*Variable
	solveCnsts []*Constraint
	active     []*Variable
	oldVals    []float64 // pre-solve values of solveVars, for Updated
	updated    []*Variable
	queue      []*Constraint // component-walk worklist

	// Free lists for the activity churn (see "Object lifecycle &
	// pooling" in DESIGN.md): RemoveVariable recycles the variable and
	// its constraint elements, NewVariable/Expand reuse them, and a miss
	// carves from the slabs (a variable with a two-edge cnsts array).
	varPool  pool.List[*Variable]
	elemPool pool.List[*elem]
	varSlab  pool.Slab[Variable]
	elemSlab pool.Slab[elem]
	edgeSlab pool.Slab[[2]*elem]

	// Observability (stats.go): solver work counters. Plain fields,
	// always on.
	stats solveStats
}

// NewSystem returns an empty linear MaxMin system.
func NewSystem() *System { return &System{} }

func (s *System) touchVar(v *Variable) {
	if v.dirtyQ < 0 {
		v.dirtyQ = int32(len(s.dirtyVars))
		s.dirtyVars = append(s.dirtyVars, v)
	}
}

// dequeueVar drops a variable from the dirty queue (swap-remove,
// fixing the moved entry's index). Removal must dequeue: a recycled
// struct keeping its old queue slot would reseed the component walk in
// a different order than a fresh allocation, and the pooled build must
// stay bit-identical to the unpooled one.
func (s *System) dequeueVar(v *Variable) {
	if v.dirtyQ < 0 {
		return
	}
	last := len(s.dirtyVars) - 1
	moved := s.dirtyVars[last]
	s.dirtyVars[v.dirtyQ] = moved
	moved.dirtyQ = v.dirtyQ
	s.dirtyVars[last] = nil
	s.dirtyVars = s.dirtyVars[:last]
	v.dirtyQ = -1
}

func (s *System) touchCnst(c *Constraint) {
	if !c.dirty {
		c.dirty = true
		s.dirtyCnsts = append(s.dirtyCnsts, c)
	}
}

// NewConstraint adds a resource with the given capacity.
// Capacity must be non-negative; a zero-capacity constraint forces all
// its variables to zero.
func (s *System) NewConstraint(capacity float64) *Constraint {
	if capacity < 0 {
		capacity = 0
	}
	c := &Constraint{id: len(s.cnsts), capacity: capacity, shared: true, sys: s}
	c.elems = c.elem0[:0]
	if capacity <= eps {
		s.zeroCaps++
	}
	s.cnsts = append(s.cnsts, c)
	s.touchCnst(c)
	return c
}

// NewVariable adds an activity with the given sharing weight and upper
// bound (bound <= 0 means unbounded). Weight 0 makes the variable
// inactive: it receives value 0 and consumes nothing (used for
// suspended activities). The returned variable may be a recycled
// struct (see RemoveVariable) but always carries a fresh id and no
// state beyond the given parameters.
func (s *System) NewVariable(weight, bound float64) *Variable {
	v := s.grabVariable()
	v.id = s.nextVID
	v.idx = int32(len(s.vars))
	v.weight = weight
	v.bound = bound
	v.ownR = math.Inf(1)
	v.sys = s
	s.nextVID++
	s.vars = append(s.vars, v)
	s.touchVar(v)
	return v
}

// Expand records that v consumes factor×value capacity on c. Expanding
// the same pair twice accumulates the factors (a route crossing the same
// link twice consumes twice the bandwidth on it).
func (s *System) Expand(c *Constraint, v *Variable, factor float64) {
	if factor <= 0 {
		return
	}
	s.touchVar(v)
	s.touchCnst(c)
	for _, e := range v.cnsts {
		if e.c == c {
			e.factor += factor
			v.summarize()
			return
		}
	}
	e := s.grabElem()
	e.v, e.c, e.factor = v, c, factor
	e.cIdx = len(c.elems)
	v.cnsts = append(v.cnsts, e)
	c.elems = append(c.elems, e)
	if len(c.elems) == 2 {
		c.elems[0].v.summarize() // c no longer holds its first variable alone
	}
	v.summarize()
}

// detachFromConstraint unlinks e from e.c.elems in O(1) by index swap.
func detachFromConstraint(e *elem) {
	c := e.c
	last := len(c.elems) - 1
	moved := c.elems[last]
	c.elems[e.cIdx] = moved
	moved.cIdx = e.cIdx
	c.elems[last] = nil
	c.elems = c.elems[:last]
	if last == 1 {
		c.elems[0].v.summarize() // c now holds its last variable alone
	}
}

// summarize rebuilds v's solver summary from its edges. A mutator calls
// it for each variable whose weight, edge factors or cnsts order it
// changes, whose own constraint it re-caps or toggles, or one of whose
// constraints it takes across one element ↔ more.
func (v *Variable) summarize() {
	v.ownR = math.Inf(1)
	link := &v.walk
	for _, e := range v.cnsts {
		if len(e.c.elems) != 1 {
			*link = e
			link = &e.next
		}
		if r := ownRatio(e, v.weight); own(e.c) && r < v.ownR { // a NaN ratio never binds
			v.ownR = r
		}
	}
	*link = nil
}

// RemoveVariable detaches v from all its constraints and drops it from
// the system in O(degree). The struct (and its constraint elements)
// are scrubbed and recycled for a future NewVariable, so v must not be
// used afterwards — a later call on the stale pointer would act on
// whatever activity is reusing the struct.
func (s *System) RemoveVariable(v *Variable) {
	if v.sys != s {
		return
	}
	for i, e := range v.cnsts {
		s.touchCnst(e.c)
		detachFromConstraint(e)
		s.releaseElem(e)
		v.cnsts[i] = nil
	}
	v.cnsts = v.cnsts[:0] // keep the capacity for the next owner
	last := len(s.vars) - 1
	moved := s.vars[last]
	s.vars[v.idx] = moved
	moved.idx = v.idx
	s.vars[last] = nil
	s.vars = s.vars[:last]
	// Dequeue, scrub everything except the visit mark, and recycle.
	s.dequeueVar(v)
	v.sys = nil
	v.id, v.idx = 0, 0
	v.weight, v.bound, v.value, v.ownR = 0, 0, 0, 0
	v.walk, v.Data = nil, nil
	s.varPool.Put(v)
	if len(s.vars) == 0 && len(s.cnsts) == 0 {
		// Nothing left to solve, but the books must still close.
		s.allDirty = true
	}
}

// SetCapacity updates a resource capacity (trace events, failures).
func (s *System) SetCapacity(c *Constraint, capacity float64) {
	if capacity < 0 {
		capacity = 0
	}
	if c.capacity == capacity {
		return
	}
	if c.sys == s && (c.capacity <= eps) != (capacity <= eps) {
		if capacity <= eps {
			s.zeroCaps++
		} else {
			s.zeroCaps--
		}
	}
	c.capacity = capacity
	s.touchCnst(c)
	if own(c) {
		for _, e := range c.elems {
			e.v.summarize()
		}
	}
}

// SetWeight updates a variable's sharing weight (0 suspends it).
func (s *System) SetWeight(v *Variable, weight float64) {
	if v.weight != weight {
		v.weight = weight
		s.touchVar(v)
		v.summarize()
	}
}

// SetShared toggles capacity sharing on a constraint. Non-shared
// ("fatpipe") constraints only enforce the per-variable cap
// value×factor ≤ capacity instead of the sum.
func (s *System) SetShared(c *Constraint, shared bool) {
	if c.shared != shared {
		c.shared = shared
		s.touchCnst(c)
		for _, e := range c.elems {
			e.v.summarize()
		}
	}
}

// InvalidateAll marks the whole system dirty so the next Solve
// recomputes every component from scratch. Used by benchmarks to
// measure the full-recompute baseline and by tests as a reference
// solver; incremental and full solves yield identical allocations.
func (s *System) InvalidateAll() { s.allDirty = true } //lint:allow api-rent read by the root BenchmarkFigMaxMin full-recompute rows

// Value returns the variable's allocation from the last Solve.
func (v *Variable) Value() float64 { return v.value }

// Usage returns the total load Σ value×factor over the constraint's
// variables, summed when read: between a mutation and the next Solve, a
// removed variable no longer counts and the others keep their values.
func (c *Constraint) Usage() float64 {
	u := 0.0
	for _, e := range c.elems {
		u += e.v.value * e.factor
	}
	return u
}

// Dirty reports whether the system changed since the last Solve.
func (s *System) Dirty() bool {
	return s.allDirty || len(s.dirtyVars) > 0 || len(s.dirtyCnsts) > 0
}

// Updated returns the variables whose allocation changed in the last
// Solve (including variables that joined or left a re-solved
// component). The slice is valid until the next Solve, and must be
// consumed before any RemoveVariable call: removal recycles the
// struct, so a stale entry may later denote a different activity
// (surf reads Updated immediately after Solve, inside one refresh).
func (s *System) Updated() []*Variable { return s.updated }

// Epsilon below which capacities/weights are treated as zero.
const eps = 1e-12

// Solve computes the max-min fair allocation by progressive filling and
// stores the result in each variable (read it with Value). Only the
// connected components containing a mutated variable or constraint are
// recomputed; allocations elsewhere are carried over. When nothing
// changed since the last Solve, it returns immediately.
//
// The algorithm maintains a "share" ratio r grown uniformly for all
// active variables (a variable's tentative value is r×weight). At each
// step it finds the smallest event among (a) a constraint saturating and
// (b) a variable reaching its bound, freezes the corresponding
// variables, subtracts their consumption, and iterates. Complexity is
// O((V+E)·rounds) over the re-solved components only.
//
// Built with -tags=simcheck, every call ends by certifying the whole
// system, and panics on a violation: that also catches a component the
// dirty tracking failed to re-solve.
func (s *System) Solve() {
	if s.Dirty() {
		s.solve()
	} else {
		s.updated = s.updated[:0] // nothing changed
	}
	if simcheck.On {
		if err := s.certify(); err != nil {
			panic(err)
		}
	}
}

// own reports whether c caps its variables one at a time, a private
// constraint (one element) or a fatpipe: only the variable on an edge of
// it ever draws on its capacity, so the edge bounds that variable alone.
func own(c *Constraint) bool { return len(c.elems) == 1 || !c.shared }

// scopeAddC marks c visited, queues it and, if it couples (not own), adds
// it to the component; a private one leads only back to its variable and
// is skipped before its walk fields are read. It reports whether c was new.
func (s *System) scopeAddC(c *Constraint) bool {
	if len(c.elems) == 1 || c.sys != s || c.visit == s.visitGen {
		return false
	}
	c.visit = s.visitGen
	if !own(c) {
		s.solveCnsts = append(s.solveCnsts, c)
	}
	s.queue = append(s.queue, c)
	return true
}

// scopeAddV marks a variable visited, appending it and queueing its
// walk edges' constraints. It reports whether v was new to this solve.
func (s *System) scopeAddV(v *Variable) bool {
	if v.sys != s || v.visit == s.visitGen {
		return false
	}
	v.visit = s.visitGen
	s.solveVars = append(s.solveVars, v)
	if s.zeroCaps > 0 {
		for _, e := range v.cnsts {
			s.dead = s.dead || e.c.capacity <= eps
		}
	}
	for e := v.walk; e != nil; e = e.next {
		s.scopeAddC(e.c)
	}
	return true
}

// walkComponent fills solveVars/solveCnsts with the component of one
// seed (a private constraint stands for its variable) in walk order and
// reports whether the seed was new to this solve. A variable leads on
// through v.walk only (a private constraint leads back to it), and its
// own edges are read only while some capacity is 0. The walk is methods
// on scratch fields, not closures: it runs for every dirty element of
// every solve, and an escaping closure would be a per-step allocation.
func (s *System) walkComponent(v *Variable, c *Constraint) bool {
	s.solveVars, s.solveCnsts, s.dead = s.solveVars[:0], s.solveCnsts[:0], false
	if c != nil && len(c.elems) == 1 {
		v = c.elems[0].v
	}
	var fresh bool
	if v != nil {
		fresh = s.scopeAddV(v)
	} else {
		fresh = s.scopeAddC(c)
	}
	for len(s.queue) > 0 {
		cc := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for _, e := range cc.elems {
			s.scopeAddV(e.v)
		}
	}
	return fresh
}

// solveFrom re-solves the component of one dirty seed as the walk
// closes it and appends the variables whose value changed to Updated.
func (s *System) solveFrom(v *Variable, c *Constraint) {
	if !s.walkComponent(v, c) {
		return
	}
	sv, sc := s.solveVars, s.solveCnsts
	s.stats.ScopeVars += uint64(len(sv))
	s.stats.Components++
	old := s.oldVals[:0]
	for _, v := range sv {
		old = append(old, v.value)
	}
	s.oldVals = old
	s.active = solveComponent(sv, sc, s.dead, s.active[:0])
	for i, v := range sv {
		if v.value != old[i] {
			s.updated = append(s.updated, v)
		}
	}
}

// solve re-runs progressive filling on every component that holds a
// dirty element (all of them when allDirty), one after the other in
// seed order, and clears the dirty queues.
func (s *System) solve() {
	s.visitGen++
	s.updated = s.updated[:0]
	vars0, comps0 := s.stats.ScopeVars, s.stats.Components
	seedVars, seedCnsts := s.dirtyVars, s.dirtyCnsts
	if s.allDirty {
		seedVars, seedCnsts = s.vars, s.cnsts
	}
	for _, v := range seedVars {
		s.solveFrom(v, nil)
	}
	for _, c := range seedCnsts {
		s.solveFrom(nil, c)
	}
	for _, v := range s.dirtyVars {
		v.dirtyQ = -1
	}
	for _, c := range s.dirtyCnsts {
		c.dirty = false
	}
	s.dirtyVars = s.dirtyVars[:0]
	s.dirtyCnsts = s.dirtyCnsts[:0]
	s.allDirty = false

	s.stats.Solves++
	if n := int(s.stats.ScopeVars - vars0); n > s.stats.MaxScopeVars {
		s.stats.MaxScopeVars = n
	}
	if n := int(s.stats.Components - comps0); n > s.stats.MaxComponents {
		s.stats.MaxComponents = n
	}
}

// solveComponent runs progressive filling on one connected component
// (sv its variables, sc its coupling constraints; dead if an edge has
// zero capacity, which fixes its variable at 0) and stores the values on
// its variables; active is the caller's scratch, returned for reuse.
// An own edge caps its variable: nothing else draws on that constraint,
// so while the variable is active its remCap/load is ownRatio's
// capacity/(weight*factor). The round reads only the tightest such cap,
// v.ownR, and follows v.walk to the sc members, past fatpipes.
//
// A round is four passes. Over the active variables: each sc member's
// weighted load and active count, and the ratios at which bounds and own
// caps bind. Over sc: the ratio r = remCap/load at which each member
// saturates; the smallest ratio of all is the round's minR. Over sc
// again: sat, whether r is minR within tolerance. Over the active
// variables: freeze those at their bound, on a sat member or at their
// own cap (every own ratio is >= minR, so one is within tolerance of it
// exactly when ownR is), subtract their consumption from sc, keep the
// rest. Nothing the freeze test reads changes in that pass, so each
// remCap loses the same terms in the same (active, then edge) order as
// if all freezes had been marked first. When a sat member carries every
// active variable, all of them freeze on it: the last round skips the
// edge scan and the subtraction, which nothing would read.
//
// Every round freezes at least one variable, so the loop needs no
// stall fallback: remCap is clamped at 0 and capacities, loads, bounds
// and weights are positive, so minR >= 0; whatever attains it freezes
// something — a constraint with r == minR is sat and has an active
// variable (load > 0), a bound with b/w == minR gives minR*w within
// rounding of b, far inside the 1e-9 tolerance, and an own edge
// re-evaluates to the same quotient.
func solveComponent(sv []*Variable, sc []*Constraint, dead bool, active []*Variable) []*Variable {
	for _, c := range sc {
		c.remCap = c.capacity
	}
reset:
	for _, v := range sv {
		v.value = 0
		if v.weight <= eps || len(v.cnsts) == 0 {
			continue // inactive or unconstrained-with-no-resource
		}
		if dead {
			for _, e := range v.cnsts {
				if e.c.capacity <= eps {
					continue reset
				}
			}
		}
		active = append(active, v)
	}

	for len(active) > 0 {
		// c.load = Σ weight*factor over active vars; bounds, own edges cap minR.
		for _, c := range sc {
			c.load, c.nact = 0, 0
		}
		minR := math.Inf(1)
		for _, v := range active {
			if v.bound > 0 {
				if r := v.bound / v.weight; r < minR {
					minR = r
				}
			}
			if v.ownR < minR {
				minR = v.ownR
			}
			for e := v.walk; e != nil; e = e.next {
				if c := e.c; c.shared {
					c.load += v.weight * e.factor
					c.nact++
				}
			}
		}
		// Growth limit from constraints: r such that r * load == remCap.
		for _, c := range sc {
			if c.load > 0 {
				c.r = c.remCap / c.load
				if c.r < minR {
					minR = c.r
				}
			}
		}
		if math.IsInf(minR, 1) {
			// No limiting factor: every active variable is unbounded and
			// sits on own edges of infinite capacity only.
			for _, v := range active {
				v.value = math.Inf(1)
			}
			break
		}

		tol := 1e-9 * minR
		last := false
		for _, c := range sc {
			c.sat = c.load > 0 && math.Abs(c.r-minR) <= tol
			last = last || c.sat && int(c.nact) == len(active)
		}

		n := 0
		for _, v := range active {
			val := minR * v.weight
			atBound := false
			if v.bound > 0 {
				atBound = val >= v.bound-1e-9*v.bound
			}
			atCnst := last || math.Abs(v.ownR-minR) <= tol
			for e := v.walk; e != nil && !atCnst; e = e.next {
				atCnst = e.c.shared && e.c.sat
			}
			if !atBound && !atCnst {
				active[n] = v
				n++
				continue
			}
			if atBound && (v.bound < val || !atCnst) {
				val = v.bound
			}
			v.value = val
			if last {
				continue
			}
			for e := v.walk; e != nil; e = e.next {
				if c := e.c; c.shared {
					c.remCap -= val * e.factor
					if c.remCap < 0 {
						c.remCap = 0
					}
				}
			}
		}
		active = active[:n]
	}
	return active[:0]
}

// ownRatio is the ratio at which own edge e caps a variable of weight
// w, capacity/(w*factor); +Inf at weight 0, which draws nothing.
func ownRatio(e *elem, w float64) float64 {
	if d := w * e.factor; d > 0 {
		return e.c.capacity / d
	}
	return math.Inf(1)
}
