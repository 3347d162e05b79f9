package maxmin

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleVariableSingleConstraint(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(10)
	v := s.NewVariable(1, 0)
	s.Expand(c, v, 1)
	s.Solve()
	if !approx(v.Value(), 10, 1e-9) {
		t.Errorf("value = %g, want 10", v.Value())
	}
	if !approx(c.Usage(), 10, 1e-9) {
		t.Errorf("usage = %g, want 10", c.Usage())
	}
}

func TestEqualShare(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(9)
	vars := []*Variable{s.NewVariable(1, 0), s.NewVariable(1, 0), s.NewVariable(1, 0)}
	for _, v := range vars {
		s.Expand(c, v, 1)
	}
	s.Solve()
	for i, v := range vars {
		if !approx(v.Value(), 3, 1e-9) {
			t.Errorf("var %d = %g, want 3", i, v.Value())
		}
	}
}

func TestWeightedShare(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(12)
	v1 := s.NewVariable(1, 0)
	v2 := s.NewVariable(2, 0) // twice the priority -> twice the share
	s.Expand(c, v1, 1)
	s.Expand(c, v2, 1)
	s.Solve()
	if !approx(v1.Value(), 4, 1e-9) || !approx(v2.Value(), 8, 1e-9) {
		t.Errorf("values = %g,%g, want 4,8", v1.Value(), v2.Value())
	}
}

func TestBoundFreesCapacityForOthers(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(10)
	v1 := s.NewVariable(1, 2) // capped at 2
	v2 := s.NewVariable(1, 0)
	s.Expand(c, v1, 1)
	s.Expand(c, v2, 1)
	s.Solve()
	if !approx(v1.Value(), 2, 1e-9) {
		t.Errorf("v1 = %g, want 2 (its bound)", v1.Value())
	}
	if !approx(v2.Value(), 8, 1e-9) {
		t.Errorf("v2 = %g, want 8 (leftover capacity)", v2.Value())
	}
}

func TestBoundAboveShareIsInert(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(10)
	v1 := s.NewVariable(1, 100)
	v2 := s.NewVariable(1, 0)
	s.Expand(c, v1, 1)
	s.Expand(c, v2, 1)
	s.Solve()
	if !approx(v1.Value(), 5, 1e-9) || !approx(v2.Value(), 5, 1e-9) {
		t.Errorf("values = %g,%g, want 5,5", v1.Value(), v2.Value())
	}
}

// The classic multi-link example: flow A crosses links L1 and L2, flow B
// only L1, flow C only L2. With caps L1=1, L2=2: A and B share L1
// equally (0.5 each); C then gets the rest of L2 (1.5).
func TestMultiHopBottleneck(t *testing.T) {
	s := NewSystem()
	l1 := s.NewConstraint(1)
	l2 := s.NewConstraint(2)
	a := s.NewVariable(1, 0)
	b := s.NewVariable(1, 0)
	c := s.NewVariable(1, 0)
	s.Expand(l1, a, 1)
	s.Expand(l2, a, 1)
	s.Expand(l1, b, 1)
	s.Expand(l2, c, 1)
	s.Solve()
	if !approx(a.Value(), 0.5, 1e-9) {
		t.Errorf("a = %g, want 0.5", a.Value())
	}
	if !approx(b.Value(), 0.5, 1e-9) {
		t.Errorf("b = %g, want 0.5", b.Value())
	}
	if !approx(c.Value(), 1.5, 1e-9) {
		t.Errorf("c = %g, want 1.5", c.Value())
	}
}

// The paper's MaxMin illustration: 4 "procs" sharing resources.
// proc1+proc2 share a resource of capacity C while proc3 uses a private
// one; verifies the "maximize the minimum" property.
func TestPaperIllustration(t *testing.T) {
	s := NewSystem()
	shared := s.NewConstraint(100)
	private := s.NewConstraint(60)
	p1 := s.NewVariable(1, 0)
	p2 := s.NewVariable(1, 0)
	p3 := s.NewVariable(1, 0)
	p4 := s.NewVariable(1, 0)
	s.Expand(shared, p1, 1)
	s.Expand(shared, p2, 1)
	s.Expand(shared, p3, 1)
	s.Expand(private, p4, 1)
	s.Solve()
	want := []float64{100.0 / 3, 100.0 / 3, 100.0 / 3, 60}
	for i, v := range []*Variable{p1, p2, p3, p4} {
		if !approx(v.Value(), want[i], 1e-9) {
			t.Errorf("p%d = %g, want %g", i+1, v.Value(), want[i])
		}
	}
}

func TestZeroWeightVariableGetsNothing(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(10)
	v1 := s.NewVariable(0, 0) // suspended
	v2 := s.NewVariable(1, 0)
	s.Expand(c, v1, 1)
	s.Expand(c, v2, 1)
	s.Solve()
	if v1.Value() != 0 {
		t.Errorf("suspended var = %g, want 0", v1.Value())
	}
	if !approx(v2.Value(), 10, 1e-9) {
		t.Errorf("v2 = %g, want 10", v2.Value())
	}
}

func TestZeroCapacityConstraint(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(0) // failed resource
	v := s.NewVariable(1, 0)
	s.Expand(c, v, 1)
	s.Solve()
	if v.Value() != 0 {
		t.Errorf("value on failed resource = %g, want 0", v.Value())
	}
}

func TestFactorScalesConsumption(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(10)
	v := s.NewVariable(1, 0)
	s.Expand(c, v, 2) // consumes 2 units of capacity per unit of value
	s.Solve()
	if !approx(v.Value(), 5, 1e-9) {
		t.Errorf("value = %g, want 5", v.Value())
	}
}

func TestExpandTwiceAccumulates(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(10)
	v := s.NewVariable(1, 0)
	s.Expand(c, v, 1)
	s.Expand(c, v, 1) // route crosses the link twice
	s.Solve()
	if !approx(v.Value(), 5, 1e-9) {
		t.Errorf("value = %g, want 5", v.Value())
	}
}

func TestFatpipeDoesNotShare(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(10)
	s.SetShared(c, false)
	v1 := s.NewVariable(1, 0)
	v2 := s.NewVariable(1, 0)
	s.Expand(c, v1, 1)
	s.Expand(c, v2, 1)
	s.Solve()
	if !approx(v1.Value(), 10, 1e-9) || !approx(v2.Value(), 10, 1e-9) {
		t.Errorf("values = %g,%g, want 10,10 (fatpipe)", v1.Value(), v2.Value())
	}
}

func TestRemoveVariableRelaxesOthers(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(10)
	v1 := s.NewVariable(1, 0)
	v2 := s.NewVariable(1, 0)
	s.Expand(c, v1, 1)
	s.Expand(c, v2, 1)
	s.Solve()
	if !approx(v1.Value(), 5, 1e-9) {
		t.Fatalf("v1 = %g, want 5", v1.Value())
	}
	s.RemoveVariable(v2)
	if !s.Dirty() {
		t.Error("system not dirty after RemoveVariable")
	}
	s.Solve()
	if !approx(v1.Value(), 10, 1e-9) {
		t.Errorf("v1 after removal = %g, want 10", v1.Value())
	}
	if len(s.vars) != 1 {
		t.Errorf("%d variables, want 1", len(s.vars))
	}
}

func TestRemoveConstraint(t *testing.T) {
	s := NewSystem()
	c1 := s.NewConstraint(1)
	c2 := s.NewConstraint(100)
	v := s.NewVariable(1, 0)
	s.Expand(c1, v, 1)
	s.Expand(c2, v, 1)
	s.Solve()
	if !approx(v.Value(), 1, 1e-9) {
		t.Fatalf("v = %g, want 1", v.Value())
	}
	s.RemoveConstraint(c1)
	s.Solve()
	if !approx(v.Value(), 100, 1e-9) {
		t.Errorf("v after constraint removal = %g, want 100", v.Value())
	}
}

func TestSetCapacityReallocates(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(10)
	v := s.NewVariable(1, 0)
	s.Expand(c, v, 1)
	s.Solve()
	s.SetCapacity(c, 4)
	s.Solve()
	if !approx(v.Value(), 4, 1e-9) {
		t.Errorf("v = %g, want 4 after capacity change", v.Value())
	}
	s.SetCapacity(c, -3) // clamped to 0
	s.Solve()
	if v.Value() != 0 {
		t.Errorf("v = %g, want 0 for negative capacity", v.Value())
	}
}

func TestSetWeightAndBound(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(12)
	v1 := s.NewVariable(1, 0)
	v2 := s.NewVariable(1, 0)
	s.Expand(c, v1, 1)
	s.Expand(c, v2, 1)
	s.Solve()
	s.SetWeight(v1, 3)
	s.Solve()
	if !approx(v1.Value(), 9, 1e-9) || !approx(v2.Value(), 3, 1e-9) {
		t.Errorf("after SetWeight: %g,%g want 9,3", v1.Value(), v2.Value())
	}
	s.SetBound(v1, 1)
	s.Solve()
	if !approx(v1.Value(), 1, 1e-9) || !approx(v2.Value(), 11, 1e-9) {
		t.Errorf("after SetBound: %g,%g want 1,11", v1.Value(), v2.Value())
	}
}

func TestVariableWithNoConstraintIsZero(t *testing.T) {
	s := NewSystem()
	v := s.NewVariable(1, 5)
	s.Solve()
	if v.Value() != 0 {
		t.Errorf("unattached variable = %g, want 0", v.Value())
	}
}

func TestAccessors(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint(10)
	v := s.NewVariable(2, 7)
	s.Expand(c, v, 1)
	if v.Weight() != 2 || v.Bound() != 7 {
		t.Errorf("weight/bound = %g/%g, want 2/7", v.Weight(), v.Bound())
	}
	if c.Capacity() != 10 || !c.Shared() {
		t.Errorf("capacity/shared = %g/%v", c.Capacity(), c.Shared())
	}
	if len(s.cnsts) != 1 {
		t.Errorf("%d constraints, want 1", len(s.cnsts))
	}
}

// buildRandomSystem creates a random feasible system for property tests.
func buildRandomSystem(rng *rand.Rand, nVars, nCnsts int) *System {
	s := NewSystem()
	cs := make([]*Constraint, nCnsts)
	for i := range cs {
		cs[i] = s.NewConstraint(1 + rng.Float64()*99)
	}
	for i := 0; i < nVars; i++ {
		bound := 0.0
		if rng.Intn(3) == 0 {
			bound = 0.5 + rng.Float64()*20
		}
		v := s.NewVariable(0.5+rng.Float64()*4, bound)
		// Attach to 1..3 random constraints.
		n := 1 + rng.Intn(3)
		for j := 0; j < n; j++ {
			s.Expand(cs[rng.Intn(len(cs))], v, 0.5+rng.Float64()*2)
		}
	}
	return s
}

// Property: Solve always yields a feasible, max-min-saturated solution.
func TestSolveIsValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := buildRandomSystem(rng, 1+rng.Intn(30), 1+rng.Intn(10))
		s.Solve()
		problems := s.Validate(1e-6)
		if len(problems) > 0 {
			t.Logf("seed %d: %v\n%s", seed, problems, s.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: doubling every capacity doubles every allocation
// (the solution is positively homogeneous).
func TestSolveHomogeneityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv, nc := 1+rng.Intn(15), 1+rng.Intn(6)

		rng1 := rand.New(rand.NewSource(seed))
		s1 := buildRandomSystem(rng1, nv, nc)
		rng2 := rand.New(rand.NewSource(seed))
		s2 := buildRandomSystem(rng2, nv, nc)
		for i, c := range s2.cnsts {
			_ = i
			s2.SetCapacity(c, c.Capacity()*2)
		}
		for _, v := range s2.vars {
			if v.Bound() > 0 {
				s2.SetBound(v, v.Bound()*2)
			}
		}
		s1.Solve()
		s2.Solve()
		for i := range s1.vars {
			if !approx(s1.vars[i].Value()*2, s2.vars[i].Value(), 1e-6*(1+s2.vars[i].Value())) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: removing a variable never decreases the minimum normalized
// share (value/weight) of the remaining variables. (Note that individual
// allocations may legitimately *decrease* — freeing one bottleneck can
// unblock a competitor on another — but max-min lexicographically
// maximizes the minimum, and the old solution restricted to the
// remaining variables stays feasible.)
func TestRemovalMinShareMonotonicityProperty(t *testing.T) {
	minShare := func(s *System) float64 {
		m := math.Inf(1)
		for _, v := range s.vars {
			if v.Weight() <= 0 || len(v.cnsts) == 0 {
				continue
			}
			if sh := v.Value() / v.Weight(); sh < m {
				m = sh
			}
		}
		return m
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv, nc := 2+rng.Intn(15), 1+rng.Intn(6)
		s := buildRandomSystem(rng, nv, nc)
		s.Solve()
		victim := s.vars[rng.Intn(len(s.vars))]
		// The bound of the victim could have been the old minimum: only
		// compare against the min over the *surviving* variables.
		s.RemoveVariable(victim)
		survivorsBeforeMin := minShare(s) // values still from old solve
		s.Solve()
		return minShare(s) >= survivorsBeforeMin-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestLargeSystemSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := buildRandomSystem(rng, 2000, 300)
	s.Solve()
	if problems := s.Validate(1e-5); len(problems) > 0 {
		t.Errorf("large system invalid: %v", problems[:min(3, len(problems))])
	}
}

// TestSolveSpawnsNoGoroutine pins the single solve path: the dirty
// components — 200 independent islands here, re-solved in one call —
// are filled one after the other on the caller's goroutine.
func TestSolveSpawnsNoGoroutine(t *testing.T) {
	const islands = 200
	s := NewSystem()
	vars := make([]*Variable, 0, 2*islands)
	for i := 0; i < islands; i++ {
		c := s.NewConstraint(10)
		for j := 0; j < 2; j++ {
			v := s.NewVariable(1, 0)
			s.Expand(c, v, 1)
			vars = append(vars, v)
		}
	}
	before := runtime.NumGoroutine()
	s.Solve()
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines went %d -> %d across Solve", before, after)
	}
	if st := s.Stats(); st.Solves != 1 || st.MaxComponents != islands {
		t.Errorf("stats = %+v, want 1 solve over %d components", st, islands)
	}
	for _, v := range vars {
		if v.Value() != 5 {
			t.Fatalf("island share = %g, want 5", v.Value())
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
