package maxmin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestIncrementalEquivalenceProperty drives randomized mutation
// sequences (expand / set-weight / set-capacity / set-shared / fail a
// constraint / add constraints / add and remove variables) through two
// mirrored systems: one solved incrementally after every mutation, one
// forced through a from-scratch full recompute with InvalidateAll. The
// allocations and constraint usages must stay identical within eps.
func TestIncrementalEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sa, sb := NewSystem(), NewSystem()
		var av, bv []*Variable
		var ac, bc []*Constraint

		addCnst := func() {
			cap := rng.Float64() * 100
			if rng.Intn(8) == 0 {
				cap = 0 // failed resource
			}
			ca, cb := sa.NewConstraint(cap), sb.NewConstraint(cap)
			if rng.Intn(5) == 0 {
				sa.SetShared(ca, false)
				sb.SetShared(cb, false)
			}
			ac, bc = append(ac, ca), append(bc, cb)
		}
		addVar := func() {
			bound := 0.0
			if rng.Intn(3) == 0 {
				bound = 0.5 + rng.Float64()*20
			}
			w := 0.5 + rng.Float64()*4
			va, vb := sa.NewVariable(w, bound), sb.NewVariable(w, bound)
			for n := 1 + rng.Intn(3); n > 0 && len(ac) > 0; n-- {
				i := rng.Intn(len(ac))
				f := 0.5 + rng.Float64()*2
				sa.Expand(ac[i], va, f)
				sb.Expand(bc[i], vb, f)
			}
			av, bv = append(av, va), append(bv, vb)
		}

		for i := 0; i < 2+rng.Intn(5); i++ {
			addCnst()
		}
		for i := 0; i < 4+rng.Intn(10); i++ {
			addVar()
		}

		for step := 0; step < 40; step++ {
			switch rng.Intn(9) {
			case 0:
				addCnst()
			case 1:
				addVar()
			case 2:
				if len(ac) > 0 { // a resource fails under its variables
					i := rng.Intn(len(ac))
					sa.SetCapacity(ac[i], 0)
					sb.SetCapacity(bc[i], 0)
				}
			case 3:
				if len(av) > 1 {
					i := rng.Intn(len(av))
					sa.RemoveVariable(av[i])
					sb.RemoveVariable(bv[i])
					av = append(av[:i], av[i+1:]...)
					bv = append(bv[:i], bv[i+1:]...)
				}
			case 4:
				if len(av) > 0 {
					i := rng.Intn(len(av))
					w := rng.Float64() * 4 // 0 suspends
					sa.SetWeight(av[i], w)
					sb.SetWeight(bv[i], w)
				}
			case 5:
				if len(av) > 0 { // a weight decades away from the others
					i := rng.Intn(len(av))
					w := math.Pow(10, rng.Float64()*6-3)
					sa.SetWeight(av[i], w)
					sb.SetWeight(bv[i], w)
				}
			case 6:
				if len(ac) > 0 {
					i := rng.Intn(len(ac))
					cap := rng.Float64() * 100
					if rng.Intn(6) == 0 {
						cap = 0
					}
					sa.SetCapacity(ac[i], cap)
					sb.SetCapacity(bc[i], cap)
				}
			case 7:
				if len(ac) > 0 && len(av) > 0 {
					i, j := rng.Intn(len(ac)), rng.Intn(len(av))
					f := 0.5 + rng.Float64()*2
					sa.Expand(ac[i], av[j], f)
					sb.Expand(bc[i], bv[j], f)
				}
			case 8:
				if len(ac) > 0 {
					i := rng.Intn(len(ac))
					shared := rng.Intn(2) == 0
					sa.SetShared(ac[i], shared)
					sb.SetShared(bc[i], shared)
				}
			}
			checkSummaries(t, fmt.Sprintf("seed %d step %d", seed, step), sa)
			sa.Solve() // incremental: dirty components only
			sb.InvalidateAll()
			sb.Solve() // reference: full recompute
			for i := range av {
				x, y := av[i].Value(), bv[i].Value()
				if math.IsInf(x, 1) && math.IsInf(y, 1) {
					continue
				}
				if !approx(x, y, 1e-6*(1+math.Abs(y))) {
					t.Logf("seed %d step %d: var %d incremental=%g full=%g\nincremental:\n%s\nfull:\n%s",
						seed, step, i, x, y, sa.String(), sb.String())
					return false
				}
			}
			for i := range ac {
				x, y := ac[i].Usage(), bc[i].Usage()
				if math.IsInf(x, 1) && math.IsInf(y, 1) {
					continue
				}
				if !approx(x, y, 1e-6*(1+math.Abs(y))) {
					t.Logf("seed %d step %d: constraint %d usage incremental=%g full=%g",
						seed, step, i, x, y)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Regression for the zero-capacity pre-pass: fatpipe (non-shared)
// constraints with zero capacity must starve their variables exactly
// like shared ones (the seed had two duplicate branches for this; they
// are now a single capacity check).
func TestZeroCapacityFatpipeConstraint(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(0)
	s.SetShared(c, false)
	v1 := s.NewVariable(1, 0)
	v2 := s.NewVariable(2, 5)
	s.Expand(c, v1, 1)
	s.Expand(c, v2, 1.5)
	s.Solve()
	if v1.Value() != 0 || v2.Value() != 0 {
		t.Errorf("values on zero-capacity fatpipe = %g,%g, want 0,0", v1.Value(), v2.Value())
	}
	// A healthy constraint on the same variable must not resurrect it.
	ok := s.NewConstraint(10)
	s.Expand(ok, v1, 1)
	s.Solve()
	if v1.Value() != 0 {
		t.Errorf("value with one dead fatpipe + one healthy constraint = %g, want 0", v1.Value())
	}
	// Restoring the capacity revives both variables at the fatpipe
	// semantics (each bounded independently).
	s.SetCapacity(c, 9)
	s.Solve()
	if !approx(v1.Value(), 9, 1e-9) {
		t.Errorf("v1 after restore = %g, want 9", v1.Value())
	}
	if !approx(v2.Value(), 5, 1e-9) { // bound 5 < 9/1.5
		t.Errorf("v2 after restore = %g, want 5 (its bound)", v2.Value())
	}
}

// Updated must report exactly the variables whose allocation changed:
// mutating one component must not touch (or report) the other.
func TestUpdatedReportsOnlyChangedComponent(t *testing.T) {
	s := NewSystem()
	c1 := s.NewConstraint(10)
	c2 := s.NewConstraint(20)
	a1 := s.NewVariable(1, 0)
	a2 := s.NewVariable(1, 0)
	b1 := s.NewVariable(1, 0)
	s.Expand(c1, a1, 1)
	s.Expand(c1, a2, 1)
	s.Expand(c2, b1, 1)
	s.Solve()
	if n := len(s.Updated()); n != 3 {
		t.Fatalf("initial solve updated %d vars, want 3", n)
	}

	s.SetWeight(a1, 3) // touches only the c1 component
	s.Solve()
	up := map[*Variable]bool{}
	for _, v := range s.Updated() {
		up[v] = true
	}
	if !up[a1] || !up[a2] {
		t.Errorf("updated = %v, want both c1 variables", up)
	}
	if up[b1] {
		t.Error("variable of untouched component reported as updated")
	}
	if !approx(b1.Value(), 20, 1e-9) {
		t.Errorf("untouched component value = %g, want 20", b1.Value())
	}
	if !approx(a1.Value(), 7.5, 1e-9) || !approx(a2.Value(), 2.5, 1e-9) {
		t.Errorf("resolved component = %g,%g, want 7.5,2.5", a1.Value(), a2.Value())
	}

	// A clean system must not re-solve at all.
	s.Solve()
	if len(s.Updated()) != 0 {
		t.Error("clean re-solve reported updates")
	}
}

// A mutation in one component must leave the allocations of every
// other component bit-identical (carried over, not recomputed).
func TestPartialSolveLeavesOtherComponentsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSystem()
	type comp struct {
		vars []*Variable
		cns  []*Constraint
	}
	var comps []comp
	for k := 0; k < 20; k++ {
		var cp comp
		for i := 0; i < 3; i++ {
			cp.cns = append(cp.cns, s.NewConstraint(1+rng.Float64()*50))
		}
		for i := 0; i < 8; i++ {
			v := s.NewVariable(0.5+rng.Float64()*2, 0)
			s.Expand(cp.cns[rng.Intn(3)], v, 0.5+rng.Float64())
			s.Expand(cp.cns[rng.Intn(3)], v, 0.5+rng.Float64())
			cp.vars = append(cp.vars, v)
		}
		comps = append(comps, cp)
	}
	s.Solve()
	before := make(map[*Variable]float64)
	for _, cp := range comps[1:] {
		for _, v := range cp.vars {
			before[v] = v.Value()
		}
	}
	s.SetCapacity(comps[0].cns[0], 123)
	s.SetWeight(comps[0].vars[0], 9)
	s.Solve()
	for v, want := range before {
		if v.Value() != want {
			t.Fatalf("untouched component variable drifted: %g != %g", v.Value(), want)
		}
	}
	if err := s.certify(); err != nil {
		t.Errorf("solution invalid after partial solve: %v", err)
	}
}

// Steady-state incremental solves must not allocate.
func TestIncrementalSolveAllocationFree(t *testing.T) {
	s := NewSystem()
	var cns []*Constraint
	for i := 0; i < 50; i++ {
		cns = append(cns, s.NewConstraint(10+float64(i%7)))
	}
	var vars []*Variable
	for i := 0; i < 400; i++ {
		v := s.NewVariable(1, 0)
		s.Expand(cns[i%50], v, 1)
		s.Expand(cns[(i*7+3)%50], v, 1)
		vars = append(vars, v)
	}
	s.Solve()
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		s.SetWeight(vars[i%400], float64(1+i%3))
		s.Solve()
		i++
	})
	if avg > 0 {
		t.Errorf("incremental solve allocates %.1f objects per run, want 0", avg)
	}
}
