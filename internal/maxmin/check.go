package maxmin

import (
	"fmt"
	"math"
)

// crossCheck verifies the incremental solution against a from-scratch
// full solve of a structural clone of the system, panicking on any
// divergence. Only compiled-in behaviour under -tags=maxmincheck (see
// shadowCheck); it allocates freely since it is a debugging aid.
func (s *System) crossCheck() {
	clone, vmap := s.clone()
	clone.allDirty = true
	clone.solve()
	for i, v := range s.vars {
		cv := vmap[i]
		got, want := v.value, cv.value
		if math.IsInf(got, 1) && math.IsInf(want, 1) {
			continue
		}
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			panic(fmt.Sprintf( //lint:allow hot-sprintf cold path: divergence panic under -tags=maxmincheck, the run is already dead
				"maxmin: incremental solve diverged on V%d: incremental=%g full=%g (%d vars, %d constraints)",
				v.id, got, want, len(s.vars), len(s.cnsts)))
		}
	}
}

// clone copies the system's structure (not its dirty/solution state)
// and returns the clone plus the cloned variables aligned with s.vars.
func (s *System) clone() (*System, []*Variable) {
	c := NewSystem()
	cmap := make(map[*Constraint]*Constraint, len(s.cnsts))
	for _, sc := range s.cnsts {
		nc := c.NewConstraint(sc.capacity)
		nc.shared = sc.shared
		cmap[sc] = nc
	}
	vmap := make([]*Variable, len(s.vars))
	for i, sv := range s.vars {
		nv := c.NewVariable(sv.weight, sv.bound)
		for _, e := range sv.cnsts {
			c.Expand(cmap[e.c], nv, e.factor)
		}
		vmap[i] = nv
	}
	return c, vmap
}
