package maxmin

import (
	"math"
	"testing"
)

// solveAndCertify solves s and certifies the result. Under
// -tags=simcheck Solve certifies on its own and panics; the panic is
// returned as the error, so a test reads the same in both builds.
func solveAndCertify(s *System) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = r.(error)
		}
	}()
	s.Solve()
	return s.certify()
}

// multiHop is the two-round system of TestMultiHopBottleneck: a crosses
// l1 (capacity 1) and l2 (capacity 2), b only l1, c only l2. The max-min
// allocation is a = b = 0.5 in round one, then c = 1.5.
func multiHop(t *testing.T) (s *System, a, b, c *Variable) {
	t.Helper()
	s = NewSystem()
	l1, l2 := s.NewConstraint(1), s.NewConstraint(2)
	a, b, c = s.NewVariable(1, 0), s.NewVariable(1, 0), s.NewVariable(1, 0)
	s.Expand(l1, a, 1)
	s.Expand(l2, a, 1)
	s.Expand(l1, b, 1)
	s.Expand(l2, c, 1)
	if err := solveAndCertify(s); err != nil {
		t.Fatalf("the solver's own allocation: %v\n%s", err, s)
	}
	return s, a, b, c
}

// rejects sets the variables' values by hand and requires certify to
// refuse them.
func rejects(t *testing.T, s *System, vs []*Variable, vals ...float64) {
	t.Helper()
	for i, v := range vs {
		v.value = vals[i]
	}
	if err := s.certify(); err == nil {
		t.Fatalf("certify accepted %v\n%s", vals, s)
	} else {
		t.Log(err)
	}
}

// (2, 0) for two equal-weight flows on a link of capacity 2 is feasible
// and saturates the link — Pareto-optimal — but not fair: the flow at 0
// has a smaller share than its neighbour on its only constraint.
func TestCertifyRejectsParetoNotFair(t *testing.T) {
	s := NewSystem()
	l := s.NewConstraint(2)
	x, y := s.NewVariable(1, 0), s.NewVariable(1, 0)
	s.Expand(l, x, 1)
	s.Expand(l, y, 1)
	if err := solveAndCertify(s); err != nil {
		t.Fatalf("the solver's own allocation: %v", err)
	}
	rejects(t, s, []*Variable{x, y}, 2, 0)
}

// A solver that skips a round's remCap subtraction leaves l2 at 2 when
// a freezes, and hands c all of it: l2 carries 2.5.
func TestCertifyRejectsSkippedSubtraction(t *testing.T) {
	s, a, b, c := multiHop(t)
	rejects(t, s, []*Variable{a, b, c}, 0.5, 0.5, 2)
}

// A solver that freezes every active variable as soon as any constraint
// saturates stops after round one: c stays at 0.5 on an l2 half empty.
func TestCertifyRejectsFreezeOnAnySaturation(t *testing.T) {
	s, a, b, c := multiHop(t)
	rejects(t, s, []*Variable{a, b, c}, 0.5, 0.5, 0.5)
}

// A capacity written on the struct, past SetCapacity, dirties nothing:
// Solve keeps the old allocation, which the whole-system certificate
// finds overloading the shrunk link, and no longer filling the grown one.
func TestCertifyCatchesUndirtiedCapacity(t *testing.T) {
	for _, capacity := range []float64{1, 3} {
		s, _, _, _ := multiHop(t)
		s.cnsts[1].capacity = capacity
		if err := solveAndCertify(s); err == nil {
			t.Errorf("capacity %g: certify accepted a stale allocation\n%s", capacity, s)
		} else {
			t.Log(err)
		}
	}
}

// FuzzSolve decodes bytes into a script of the mutators surf calls, on
// at most 8 constraints and 16 variables, and certifies every Solve.
// Each instruction is four bytes, op x y z, with op mod 8 one of
//
//	0 NewConstraint(capa(x))
//	1 SetShared(cs[x], y even)
//	2 NewVariable(val(x), val(y))
//	3 Expand(cs[x], vs[y], val(z))
//	4 SetWeight(vs[x], val(y))
//	5 SetCapacity(cs[x], capa(y))
//	6 RemoveVariable(vs[x])
//	7 Solve
//
// val spans 2e-8 to 1.6e8 and maps 0 to 0: a zero weight suspends, a
// zero capacity fails, a zero bound unbounds and a zero factor is a
// no-op, as in surf. capa is val but for 0xff, an infinite capacity:
// the one way to the solver's unbounded branch.
func FuzzSolve(f *testing.F) {
	val := func(b byte) float64 {
		if b == 0 {
			return 0
		}
		return float64(1+b>>4) * math.Pow(10, float64(int(b&15)-8))
	}
	capa := func(b byte) float64 {
		if b == 0xff {
			return math.Inf(1)
		}
		return val(b)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		s := NewSystem()
		var cs []*Constraint
		var vs []*Variable
		for n := 0; len(script) >= 4 && n < 64; n++ {
			op, x, y, z := script[0]%8, script[1], script[2], script[3]
			script = script[4:]
			switch {
			case op == 0 && len(cs) < 8:
				cs = append(cs, s.NewConstraint(capa(x)))
			case op == 2 && len(vs) < 16:
				vs = append(vs, s.NewVariable(val(x), val(y)))
			case op == 7:
				if err := solveAndCertify(s); err != nil {
					t.Fatalf("%v\n%s", err, s)
				}
			case op == 1 && len(cs) > 0:
				s.SetShared(cs[int(x)%len(cs)], y%2 == 0)
			case op == 5 && len(cs) > 0:
				s.SetCapacity(cs[int(x)%len(cs)], capa(y))
			case op == 3 && len(cs) > 0 && len(vs) > 0:
				s.Expand(cs[int(x)%len(cs)], vs[int(y)%len(vs)], val(z))
			case op == 4 && len(vs) > 0:
				s.SetWeight(vs[int(x)%len(vs)], val(y))
			case op == 6 && len(vs) > 0:
				i := int(x) % len(vs)
				s.RemoveVariable(vs[i])
				vs = append(vs[:i], vs[i+1:]...)
			}
		}
		if err := solveAndCertify(s); err != nil {
			t.Fatalf("%v\n%s", err, s)
		}
	})
}
