package maxmin

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pool/pooltest"
)

// refScope is the dirty scope of one reference solve in the shape Solve
// gave it before it streamed: the members of every component laid out
// contiguously in walk order, each component a pair of ranges plus the
// seed its walk started from.
type refScope struct {
	vars  []*Variable
	cnsts []*Constraint
	comps []refComp
}

type refComp struct {
	v0, v1 int // vars[v0:v1]
	c0, c1 int // cnsts[c0:c1]
	seedV  *Variable
	seedC  *Constraint
}

// referenceSolve is Solve as it stood at PR 13 (ce66eea): the scope
// walk (referenceCollectScope — the walk order is part of the result,
// loads being accumulated in it), the per-component loop over the whole
// collected scope, the multi-pass round (referenceSolveComponent) and
// the Updated rule. The scope and its side arrays (loads by
// Constraint.idx, fixed by Variable.idx) are local, so the reference
// depends on no scratch field the production kernel may drop.
func referenceSolve(s *System) refScope {
	if !s.Dirty() {
		s.updated = s.updated[:0]
		return refScope{}
	}
	scope := referenceCollectScope(s)
	sv, sc := scope.vars, scope.cnsts
	loads := make([]float64, len(s.cnsts))
	fixed := make([]bool, len(s.vars))
	oldVals := make([]float64, len(sv))
	for i, v := range sv {
		oldVals[i] = v.value
	}
	var active []*Variable
	for _, cr := range scope.comps {
		active = referenceSolveComponent(sv[cr.v0:cr.v1], sc[cr.c0:cr.c1], loads, fixed, active[:0])
	}
	updated := s.updated[:0]
	for i, v := range sv {
		if v.value != oldVals[i] {
			updated = append(updated, v)
		}
	}
	s.updated = updated
	return scope
}

// referenceCollectScope is the whole-scope walk Solve used to make
// before solving anything, with every visited constraint recorded and
// walked, single-element ones included (the production walk passes those
// by, and keeps only coupling constraints).
func referenceCollectScope(s *System) refScope {
	var scope refScope
	var queue []*Constraint
	s.visitGen++
	addC := func(c *Constraint) {
		if c.sys == s && c.visit != s.visitGen {
			c.visit = s.visitGen
			scope.cnsts = append(scope.cnsts, c)
			queue = append(queue, c)
		}
	}
	addV := func(v *Variable) {
		if v.sys == s && v.visit != s.visitGen {
			v.visit = s.visitGen
			scope.vars = append(scope.vars, v)
			for _, e := range v.cnsts {
				addC(e.c)
			}
		}
	}
	walkFrom := func(v *Variable, c *Constraint) {
		v0, c0 := len(scope.vars), len(scope.cnsts)
		if v != nil {
			addV(v)
		} else {
			addC(c)
		}
		for len(queue) > 0 {
			cc := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, e := range cc.elems {
				addV(e.v)
			}
		}
		if len(scope.vars) > v0 || len(scope.cnsts) > c0 {
			scope.comps = append(scope.comps, refComp{v0: v0, v1: len(scope.vars), c0: c0, c1: len(scope.cnsts), seedV: v, seedC: c})
		}
	}
	if s.allDirty {
		for _, v := range s.vars {
			walkFrom(v, nil)
		}
		for _, c := range s.cnsts {
			walkFrom(nil, c)
		}
	} else {
		for _, v := range s.dirtyVars {
			walkFrom(v, nil)
		}
		for _, c := range s.dirtyCnsts {
			walkFrom(nil, c)
		}
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
	return scope
}

// checkScope holds the Solve that got just ran to the reference scope
// of the mirrored system: as many components and scope variables
// counted, and — the production walk re-run from each component's seed
// in turn under a fresh generation, which visits exactly what it
// visited inside Solve, the structure being untouched since — the same
// members in the same order, component by component. Of the reference's
// constraints only the coupling ones (not own) are the production's.
func checkScope(t *testing.T, where string, got *System, before SolveStats, want refScope) {
	t.Helper()
	after := got.Stats()
	if nv, nc := int(after.ScopeVars-before.ScopeVars), int(after.Components-before.Components); nv != len(want.vars) || nc != len(want.comps) {
		t.Fatalf("%s: solved %d vars in %d components; reference %d in %d", where, nv, nc, len(want.vars), len(want.comps))
	}
	varByID := make(map[int]*Variable, len(got.vars))
	for _, v := range got.vars {
		varByID[v.id] = v
	}
	cnstByID := make(map[int]*Constraint, len(got.cnsts))
	for _, c := range got.cnsts {
		cnstByID[c.id] = c
	}
	got.visitGen++
	for k, cr := range want.comps {
		if cr.seedV != nil {
			got.walkComponent(varByID[cr.seedV.id], nil)
		} else {
			got.walkComponent(nil, cnstByID[cr.seedC.id])
		}
		wv := want.vars[cr.v0:cr.v1]
		var wc []*Constraint
		for _, c := range want.cnsts[cr.c0:cr.c1] {
			if !own(c) {
				wc = append(wc, c)
			}
		}
		if len(got.solveVars) != len(wv) || len(got.solveCnsts) != len(wc) {
			t.Fatalf("%s: component %d has %d vars, %d constraints; reference %d, %d", where, k,
				len(got.solveVars), len(got.solveCnsts), len(wv), len(wc))
		}
		for i, v := range got.solveVars {
			if v.id != wv[i].id {
				t.Fatalf("%s: component %d variable %d is V%d, reference V%d", where, k, i, v.id, wv[i].id)
			}
		}
		for i, c := range got.solveCnsts {
			if c.id != wc[i].id {
				t.Fatalf("%s: component %d constraint %d is C%d, reference C%d", where, k, i, c.id, wc[i].id)
			}
		}
	}
}

// referenceSolveComponent is the multi-pass progressive-filling round
// as it stood before the fused kernel (PR 13, ce66eea), verbatim but
// for v.fixed → fixed[v.idx]: loads in a side array, the freeze
// predicate re-evaluated per edge, mark → fallback → subtract → compact
// as separate passes. -tags=maxmincheck runs the production solve
// against itself; this is the independent statement of what the bits
// must be.
func referenceSolveComponent(sv []*Variable, sc []*Constraint, loads []float64, fixed []bool, active []*Variable) []*Variable {
	// Reset scope state; variables on a zero-capacity constraint (shared
	// or fatpipe alike) are fixed at 0 immediately.
	for _, v := range sv {
		fixed[v.idx] = true
		v.value = 0
		if v.weight <= eps || len(v.cnsts) == 0 {
			continue // inactive or unconstrained-with-no-resource
		}
		starved := false
		for _, e := range v.cnsts {
			if e.c.capacity <= eps {
				starved = true
				break
			}
		}
		if !starved {
			fixed[v.idx] = false
			active = append(active, v)
		}
	}
	for _, c := range sc {
		c.remCap = c.capacity
	}

	for len(active) > 0 {
		// loads[c.idx] = sum over active vars on c of weight*factor.
		for _, c := range sc {
			loads[c.idx] = 0
		}
		for _, v := range active {
			for _, e := range v.cnsts {
				loads[e.c.idx] += v.weight * e.factor
			}
		}

		// Candidate growth limit from constraints: r such that
		// r * weightedLoad == remCap (shared) or per-variable for fatpipes.
		minR := math.Inf(1)
		for _, c := range sc {
			if !c.shared {
				// Fatpipe: each variable independently limited by
				// capacity/(weight*factor); handled below per variable.
				continue
			}
			if wl := loads[c.idx]; wl > eps {
				if r := c.remCap / wl; r < minR {
					minR = r
				}
			}
		}
		// Candidate growth limit from variable bounds and fatpipes.
		for _, v := range active {
			if v.bound > 0 {
				if r := v.bound / v.weight; r < minR {
					minR = r
				}
			}
			for _, e := range v.cnsts {
				if !e.c.shared && e.factor > eps {
					if r := e.c.remCap / (v.weight * e.factor); r < minR {
						minR = r
					}
				}
			}
		}
		if math.IsInf(minR, 1) {
			// No limiting factor: variables are unconstrained. This
			// only happens when every active variable sits on fatpipe
			// constraints with infinite capacity; clamp to bound-less
			// infinity is meaningless, so freeze at +Inf guarded by eps.
			for _, v := range active {
				v.value = math.Inf(1)
				fixed[v.idx] = true
			}
			active = active[:0]
			break
		}
		if minR < 0 {
			minR = 0
		}

		// Mark everything that saturates at r = minR against the
		// round-start remaining capacities, then apply the freezes. The
		// two-phase sweep keeps the round order-independent and freezes
		// every variable of a saturating constraint in one pass.
		frozen := 0
		for _, v := range active {
			val := minR * v.weight
			atBound := v.bound > 0 && val >= v.bound-1e-9*math.Max(1, v.bound)
			atCnst := false
			for _, e := range v.cnsts {
				if e.c.shared {
					wl := loads[e.c.idx]
					if wl > eps && math.Abs(e.c.remCap/wl-minR) <= 1e-9*math.Max(1, minR) {
						atCnst = true
						break
					}
				} else if e.factor > eps {
					if math.Abs(e.c.remCap/(v.weight*e.factor)-minR) <= 1e-9*math.Max(1, minR) {
						atCnst = true
						break
					}
				}
			}
			if atBound || atCnst {
				if atBound && (v.bound < val || !atCnst) {
					val = v.bound
				}
				v.value = val
				fixed[v.idx] = true
				frozen++
			}
		}
		if frozen == 0 {
			// Numerical stall: freeze the variable with the smallest
			// weight to guarantee progress.
			var worst *Variable
			for _, v := range active {
				if worst == nil || v.weight < worst.weight {
					worst = v
				}
			}
			worst.value = minR * worst.weight
			fixed[worst.idx] = true
		}
		// Subtract frozen consumption and compact the active set.
		n := 0
		for _, v := range active {
			if !fixed[v.idx] {
				active[n] = v
				n++
				continue
			}
			for _, e := range v.cnsts {
				if e.c.shared {
					e.c.remCap -= v.value * e.factor
					if e.c.remCap < 0 {
						e.c.remCap = 0
					}
				}
			}
		}
		active = active[:n]
	}
	return active[:0]
}

// kernelChurn drives one seeded mutation sequence through two mirrored
// systems — got solved by Solve, want by referenceSolve — and fails at
// the first solve whose scope order differs, or after which any Value,
// any Usage or the Updated sequence differs in a single bit. It returns the bits of every value
// after every solve, so pooltest.Replay can also hold the pooled and
// the -tags=nopool free-list states to the same bytes.
//
// The systems are several islands of constraints (so most solves cover
// some components and skip others) with one wide bottleneck island in
// the msg_backbone shape: every variable crosses the bottleneck plus a
// private constraint, weights come from five classes, and bounds sit
// around the fair share so that some bind and some do not. Island 1 is
// all fatpipes, so its components couple nothing; SetShared toggles turn
// the other islands' constraints (the bottleneck and the private links
// included) into fatpipes and back. The churn also walks every
// transition that changes which edges can bind a variable alone: a
// private link gaining a second variable and losing it, a private link
// or a fatpipe failing and recovering, Expand accumulating on an own
// edge, an own constraint removed under live variables, and a weight
// going to 0 and back.
func kernelChurn(t *testing.T, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	got, want := NewSystem(), NewSystem()
	type pair struct{ g, w *Variable }
	type cpair struct{ g, w *Constraint }
	var vars []pair
	var islands [][]cpair
	var out bytes.Buffer

	newCnst := func(island int, capacity float64, shared bool) cpair {
		c := cpair{got.NewConstraint(capacity), want.NewConstraint(capacity)}
		got.SetShared(c.g, shared)
		want.SetShared(c.w, shared)
		islands[island] = append(islands[island], c)
		return c
	}
	randCap := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return 0 // failed resource
		case 1:
			return math.Inf(1)
		}
		return 1 + rng.Float64()*200
	}
	expand := func(c cpair, v pair, f float64) {
		got.Expand(c.g, v.g, f)
		want.Expand(c.w, v.w, f)
	}
	classWeight := func() float64 {
		if rng.Intn(10) == 0 {
			return 0 // latency phase / suspended
		}
		return 1e-3 / (2e-4 * float64(1+rng.Intn(5))) // RTTReference / RTT, five classes
	}
	addVar := func() {
		island := rng.Intn(len(islands))
		var v pair
		if island == 0 {
			// Bottleneck shape: bottleneck (islands[0][0]) + one private link.
			w := classWeight()
			bound := 0.0
			if rng.Intn(2) == 0 {
				bound = rng.Float64() * 40
			}
			v = pair{got.NewVariable(w, bound), want.NewVariable(w, bound)}
			expand(newCnst(0, 50+rng.Float64()*100, true), v, 1)
			expand(islands[0][0], v, 1)
		} else {
			w := 0.5 + rng.Float64()*4
			if rng.Intn(10) == 0 {
				w = 0
			}
			bound := 0.0
			if rng.Intn(3) == 0 {
				bound = 0.5 + rng.Float64()*60
			}
			v = pair{got.NewVariable(w, bound), want.NewVariable(w, bound)}
			cs := islands[island]
			for n := 1 + rng.Intn(3); n > 0; n-- {
				expand(cs[rng.Intn(len(cs))], v, 0.5+rng.Float64()*2)
			}
			if rng.Intn(25) == 0 {
				// A route crossing into another island merges two components.
				other := islands[rng.Intn(len(islands))]
				expand(other[rng.Intn(len(other))], v, 0.5+rng.Float64()*2)
			}
		}
		vars = append(vars, v)
	}

	islands = make([][]cpair, 3+rng.Intn(4))
	newCnst(0, 300+rng.Float64()*300, true) // the bottleneck
	for i := 1; i < len(islands); i++ {
		for n := 2 + rng.Intn(4); n > 0; n-- {
			newCnst(i, randCap(), i != 1 && rng.Intn(4) != 0)
		}
	}
	for n := 30 + rng.Intn(60); n > 0; n-- {
		addVar()
	}

	compare := func(step int) {
		t.Helper()
		checkSummaries(t, fmt.Sprintf("seed %d step %d", seed, step), got)
		before := got.Stats()
		got.Solve()
		checkScope(t, fmt.Sprintf("seed %d step %d", seed, step), got, before, referenceSolve(want))
		gu, wu := got.Updated(), want.Updated()
		if len(gu) != len(wu) {
			t.Fatalf("seed %d step %d: Updated has %d entries, reference %d", seed, step, len(gu), len(wu))
		}
		for i := range gu {
			if gu[i].id != wu[i].id {
				t.Fatalf("seed %d step %d: Updated[%d] = V%d, reference V%d", seed, step, i, gu[i].id, wu[i].id)
			}
		}
		var b [8]byte
		for _, v := range vars {
			g, w := math.Float64bits(v.g.Value()), math.Float64bits(v.w.Value())
			if g != w {
				t.Fatalf("seed %d step %d: V%d = %v (%#x), reference %v (%#x)\n%s",
					seed, step, v.g.id, v.g.Value(), g, v.w.Value(), w, got.String())
			}
			binary.LittleEndian.PutUint64(b[:], g)
			out.Write(b[:])
		}
		for _, cs := range islands {
			for _, c := range cs {
				g, w := math.Float64bits(c.g.Usage()), math.Float64bits(c.w.Usage())
				if g != w {
					t.Fatalf("seed %d step %d: C%d usage = %v (%#x), reference %v (%#x)",
						seed, step, c.g.id, c.g.Usage(), g, c.w.Usage(), w)
				}
				binary.LittleEndian.PutUint64(b[:], g)
				out.Write(b[:])
			}
		}
	}

	// pick draws one constraint for which ok holds on the got side and
	// reports where it sits in islands.
	pick := func(ok func(c *Constraint) bool) (c cpair, island, at int, found bool) {
		var cand [][2]int
		for i, cs := range islands {
			for j, c := range cs {
				if ok(c.g) {
					cand = append(cand, [2]int{i, j})
				}
			}
		}
		if len(cand) == 0 {
			return cpair{}, 0, 0, false
		}
		k := cand[rng.Intn(len(cand))]
		return islands[k[0]][k[1]], k[0], k[1], true
	}
	private := func(c *Constraint) bool { return len(c.elems) == 1 }
	fatpipe := func(c *Constraint) bool { return !c.shared && len(c.elems) > 0 }
	ownEdge := func(c *Constraint) bool { return private(c) || fatpipe(c) }
	pairOf := func(g *Variable) pair {
		for _, v := range vars {
			if v.g == g {
				return v
			}
		}
		t.Fatalf("seed %d: V%d is not live", seed, g.id)
		return pair{}
	}

	compare(-1)
	for step := 0; step < 120; step++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			switch rng.Intn(14) {
			case 0, 1:
				addVar()
			case 2, 3:
				if len(vars) > 1 {
					i := rng.Intn(len(vars))
					got.RemoveVariable(vars[i].g)
					want.RemoveVariable(vars[i].w)
					vars[i] = vars[len(vars)-1]
					vars = vars[:len(vars)-1]
				}
			case 4:
				v := vars[rng.Intn(len(vars))]
				w := classWeight()
				got.SetWeight(v.g, w)
				want.SetWeight(v.w, w)
			case 5:
				v := vars[rng.Intn(len(vars))]
				bound := rng.Float64()*50 - 10 // <= 0 unbounds
				got.SetBound(v.g, bound)
				want.SetBound(v.w, bound)
			case 6:
				cs := islands[rng.Intn(len(islands))]
				c := cs[rng.Intn(len(cs))]
				capacity := randCap()
				got.SetCapacity(c.g, capacity)
				want.SetCapacity(c.w, capacity)
			case 7:
				// The workload's triple: remove, zero-weight join, activate.
				i := rng.Intn(len(vars))
				got.RemoveVariable(vars[i].g)
				want.RemoveVariable(vars[i].w)
				vars[i] = vars[len(vars)-1]
				vars = vars[:len(vars)-1]
				compare(step)
				addVar()
				v := vars[len(vars)-1]
				got.SetWeight(v.g, 0)
				want.SetWeight(v.w, 0)
				compare(step)
				got.SetWeight(v.g, 2.5)
				want.SetWeight(v.w, 2.5)
			case 8:
				k := rng.Intn(len(islands) - 1) // any island but the fatpipe one
				if k >= 1 {
					k++
				}
				c := islands[k][rng.Intn(len(islands[k]))]
				shared := !c.g.Shared()
				got.SetShared(c.g, shared)
				want.SetShared(c.w, shared)
			case 9:
				// A private link gains a second variable, then loses it.
				if c, _, _, ok := pick(private); ok {
					w := classWeight()
					v := pair{got.NewVariable(w, 0), want.NewVariable(w, 0)}
					expand(c, v, 0.5+rng.Float64())
					expand(islands[0][0], v, 1)
					vars = append(vars, v)
					compare(step)
					got.RemoveVariable(v.g)
					want.RemoveVariable(v.w)
					vars = vars[:len(vars)-1]
				}
			case 10:
				// A private link or a fatpipe fails and recovers.
				which := private
				if rng.Intn(2) == 0 {
					which = fatpipe
				}
				if c, _, _, ok := pick(which); ok {
					old := c.g.Capacity()
					got.SetCapacity(c.g, 0)
					want.SetCapacity(c.w, 0)
					compare(step)
					got.SetCapacity(c.g, old)
					want.SetCapacity(c.w, old)
				}
			case 11:
				// Expand accumulates on an own edge, twice.
				if c, _, _, ok := pick(ownEdge); ok {
					v := pairOf(c.g.elems[rng.Intn(len(c.g.elems))].v)
					expand(c, v, 0.5+rng.Float64())
					compare(step)
					expand(c, v, 0.5+rng.Float64())
				}
			case 12:
				// An own constraint goes away under its live variables
				// (never the bottleneck, never an island's last one).
				if c, i, j, ok := pick(ownEdge); ok && (i != 0 || j != 0) && len(islands[i]) > 1 {
					got.RemoveConstraint(c.g)
					want.RemoveConstraint(c.w)
					islands[i] = append(islands[i][:j], islands[i][j+1:]...)
				}
			case 13:
				// Suspend a variable and resume it at its weight.
				v := vars[rng.Intn(len(vars))]
				w := v.g.Weight()
				if w == 0 {
					w = 2.5
				}
				got.SetWeight(v.g, 0)
				want.SetWeight(v.w, 0)
				compare(step)
				got.SetWeight(v.g, w)
				want.SetWeight(v.w, w)
			}
		}
		compare(step)
	}
	return out.Bytes()
}

// TestSolveKernelBitwise holds the production kernel to the reference
// round bit for bit: math.Float64bits of every Value and Usage and the
// Updated sequence after every incremental Solve, over randomized
// systems under add / SetWeight / SetBound / SetCapacity / remove
// churn, pooled and unpooled.
func TestSolveKernelBitwise(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		pooltest.Replay(t, 1, func() []byte { return kernelChurn(t, seed) })
	}
}

// TestSolveSeedsSharingAComponent is the case a solve that streams
// component by component could plausibly get wrong: two dirty variables
// in one component (the second seed must find it already solved and
// contribute nothing — no second component, no member counted twice, no
// variable reported twice) next to a dirty constraint nothing crosses (a
// component of its own, with no variable). Three more solves seed a
// component from a private constraint: once with its variable dirty too,
// once alone, and a dirty fatpipe nothing crosses. The counters are the
// values the whole-scope solve produced for the same sequence.
func TestSolveSeedsSharingAComponent(t *testing.T) {
	type sys struct {
		s       *System
		shared  *Constraint
		private *Constraint
		vs      [3]*Variable
	}
	build := func() sys {
		s := NewSystem()
		y := sys{s: s, shared: s.NewConstraint(90), private: s.NewConstraint(20)}
		for i := range y.vs {
			y.vs[i] = s.NewVariable(1, 0)
			s.Expand(y.shared, y.vs[i], 1)
		}
		s.Expand(y.private, y.vs[1], 2)
		return y
	}
	got, want := build(), build()
	got.s.Solve()
	referenceSolve(want.s)

	for _, y := range []sys{got, want} {
		y.s.SetBound(y.vs[2], 15) // first seed
		y.s.SetWeight(y.vs[0], 3) // second seed, same component
		y.s.NewConstraint(7)      // dirty, and crossed by nothing
	}
	before := got.s.Stats()
	got.s.Solve()
	checkScope(t, "second solve", got.s, before, referenceSolve(want.s))

	var ids []int
	for _, v := range got.s.Updated() {
		ids = append(ids, v.id)
	}
	if fmt.Sprint(ids) != "[2 0]" {
		t.Errorf("Updated = V%v, want V[2 0]", ids)
	}
	for i := range got.vs {
		if g, w := got.vs[i].Value(), want.vs[i].Value(); math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("V%d = %v, reference %v", i, g, w)
		}
	}
	if g, w := got.shared.Usage(), want.shared.Usage(); math.Float64bits(g) != math.Float64bits(w) {
		t.Errorf("shared usage = %v, reference %v", g, w)
	}
	if st, wantSt := got.s.Stats(), (SolveStats{Solves: 2, ScopeVars: 6, Components: 3, MaxScopeVars: 3, MaxComponents: 2}); st != wantSt {
		t.Errorf("stats %+v, want %+v", st, wantSt)
	}

	for _, c := range []struct {
		name   string
		mutate func(y sys)
		want   SolveStats
	}{
		{"private and its variable", func(y sys) {
			y.s.SetCapacity(y.private, 25)
			y.s.SetWeight(y.vs[1], 2)
		}, SolveStats{Solves: 3, ScopeVars: 9, Components: 4, MaxScopeVars: 3, MaxComponents: 2}},
		{"private alone", func(y sys) {
			y.s.SetCapacity(y.private, 30)
		}, SolveStats{Solves: 4, ScopeVars: 12, Components: 5, MaxScopeVars: 3, MaxComponents: 2}},
		{"empty fatpipe", func(y sys) {
			y.s.SetShared(y.s.NewConstraint(5), false)
		}, SolveStats{Solves: 5, ScopeVars: 12, Components: 6, MaxScopeVars: 3, MaxComponents: 2}},
	} {
		c.mutate(got)
		c.mutate(want)
		before := got.s.Stats()
		got.s.Solve()
		checkScope(t, c.name, got.s, before, referenceSolve(want.s))
		for i := range got.vs {
			if g, w := got.vs[i].Value(), want.vs[i].Value(); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: V%d = %v, reference %v", c.name, i, g, w)
			}
		}
		if st := got.s.Stats(); st != c.want {
			t.Errorf("%s: stats %+v, want %+v", c.name, st, c.want)
		}
	}
}
