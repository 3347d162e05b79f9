package maxmin

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pool"
)

// TestVariablePoolScrubbed churns variables through a shared constraint
// set with randomized weights, bounds and adjacency and asserts that
// every recycled Variable comes back with no stale state: a pooled
// struct carries nothing of its previous owner, and a variable handed
// out by NewVariable exposes exactly the requested parameters.
func TestVariablePoolScrubbed(t *testing.T) {
	if !pool.Enabled {
		t.Skip("pooling disabled (-tags=nopool)")
	}
	rng := rand.New(rand.NewSource(42))
	s := NewSystem()
	var cnsts []*Constraint
	for i := 0; i < 8; i++ {
		cnsts = append(cnsts, s.NewConstraint(10+rng.Float64()*90))
	}
	var live []*Variable
	for op := 0; op < 3000; op++ {
		switch {
		case rng.Intn(3) > 0 || len(live) == 0:
			w := rng.Float64() * 4
			bound := 0.0
			if rng.Intn(2) == 0 {
				bound = rng.Float64() * 50
			}
			v := s.NewVariable(w, bound)
			if v.Weight() != w || v.Bound() != bound {
				t.Fatalf("fresh variable carries weight %g bound %g, want %g %g", v.Weight(), v.Bound(), w, bound)
			}
			if v.Value() != 0 || v.Data != nil || len(v.cnsts) != 0 || v.walk != nil || !math.IsInf(v.ownR, 1) {
				t.Fatalf("recycled variable leaked state: value=%g data=%v deg=%d walk=%p ownR=%g",
					v.Value(), v.Data, len(v.cnsts), v.walk, v.ownR)
			}
			v.Data = op // pollute the cookie to catch leaks on reuse
			deg := 1 + rng.Intn(3)
			for d := 0; d < deg; d++ {
				s.Expand(cnsts[rng.Intn(len(cnsts))], v, 0.5+rng.Float64())
			}
			live = append(live, v)
		default:
			i := rng.Intn(len(live))
			v := live[i]
			s.RemoveVariable(v)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			// The struct sitting in the pool must be fully scrubbed
			// (dirty/visit bookkeeping aside, which the solver owns).
			p := s.varPool.Items()[s.varPool.Len()-1]
			if p != v {
				t.Fatalf("removed variable was not pooled")
			}
			if p.sys != nil || p.weight != 0 || p.bound != 0 || p.value != 0 ||
				p.ownR != 0 || p.walk != nil || p.Data != nil || len(p.cnsts) != 0 {
				t.Fatalf("pooled variable carries stale state: %+v", p)
			}
			for _, e := range s.elemPool.Items() {
				if *e != (elem{}) {
					t.Fatalf("pooled elem carries stale state: %+v", *e)
				}
			}
		}
		if rng.Intn(8) == 0 {
			s.Solve()
			if problems := s.Validate(1e-6); len(problems) != 0 {
				t.Fatalf("solution invalid after churn: %v", problems)
			}
		}
	}
}

// TestPoolingEquivalence replays one randomized churn trace twice —
// free lists on, then off — and requires bit-identical allocations:
// recycling must be unobservable.
func TestPoolingEquivalence(t *testing.T) {
	defer func(old bool) { pool.Enabled = old }(pool.Enabled)

	run := func(pooled bool) []float64 {
		pool.Enabled = pooled
		rng := rand.New(rand.NewSource(7))
		s := NewSystem()
		var cnsts []*Constraint
		for i := 0; i < 10; i++ {
			cnsts = append(cnsts, s.NewConstraint(5+rng.Float64()*95))
		}
		var live []*Variable
		var out []float64
		for op := 0; op < 2000; op++ {
			switch {
			case rng.Intn(3) > 0 || len(live) == 0:
				v := s.NewVariable(0.5+rng.Float64()*3, float64(rng.Intn(2))*rng.Float64()*40)
				for d, deg := 0, 1+rng.Intn(3); d < deg; d++ {
					s.Expand(cnsts[rng.Intn(len(cnsts))], v, 0.5+rng.Float64())
				}
				live = append(live, v)
			default:
				i := rng.Intn(len(live))
				s.RemoveVariable(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if rng.Intn(5) == 0 {
				s.Solve()
				for _, v := range live {
					out = append(out, v.Value())
				}
			}
		}
		return out
	}

	pooled := run(true)
	fresh := run(false)
	if len(pooled) != len(fresh) {
		t.Fatalf("trace lengths differ: %d vs %d", len(pooled), len(fresh))
	}
	for i := range pooled {
		if pooled[i] != fresh[i] {
			t.Fatalf("allocation %d diverged: pooled %g, fresh %g", i, pooled[i], fresh[i])
		}
	}
}
