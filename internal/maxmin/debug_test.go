package maxmin

import (
	"fmt"
	"sort"
	"strings"
)

// Validate checks the current solution for feasibility and max-min
// optimality within tolerance tol and returns a list of violations
// (empty when the solution is sound).
func (s *System) Validate(tol float64) []string {
	var problems []string
	for _, c := range s.cnsts {
		if !c.shared {
			for _, e := range c.elems {
				if e.v.value*e.factor > c.capacity+tol {
					problems = append(problems, fmt.Sprintf("fatpipe constraint %d: var %d uses %g > cap %g",
						c.id, e.v.id, e.v.value*e.factor, c.capacity))
				}
			}
			continue
		}
		if u := c.Usage(); u > c.capacity+tol {
			problems = append(problems, fmt.Sprintf("constraint %d overloaded: usage %g > cap %g", c.id, u, c.capacity))
		}
	}
	// Max-min optimality: every active variable must be saturated —
	// either at its bound or on at least one tight constraint.
	for _, v := range s.vars {
		if v.weight <= eps || len(v.cnsts) == 0 {
			continue
		}
		if v.bound > 0 && v.value >= v.bound-tol {
			continue
		}
		sat := false
		for _, e := range v.cnsts {
			u := v.value * e.factor // a fatpipe caps each variable alone
			if e.c.shared {
				u = e.c.Usage()
			}
			if sat = u >= e.c.capacity-tol; sat {
				break
			}
		}
		if !sat {
			problems = append(problems, fmt.Sprintf("variable %d not saturated: value %g, bound %g", v.id, v.value, v.bound))
		}
	}
	return problems
}

// String renders the system state for test failure messages.
func (s *System) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "maxmin system: %d vars, %d constraints\n", len(s.vars), len(s.cnsts))
	cs := make([]*Constraint, len(s.cnsts))
	copy(cs, s.cnsts)
	sort.Slice(cs, func(i, j int) bool { return cs[i].id < cs[j].id })
	for _, c := range cs {
		fmt.Fprintf(&b, "  C%d cap=%g usage=%g shared=%v vars=[", c.id, c.capacity, c.Usage(), c.shared)
		for i, e := range c.elems {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "V%d×%g", e.v.id, e.factor)
		}
		b.WriteString("]\n")
	}
	vs := make([]*Variable, len(s.vars))
	copy(vs, s.vars)
	sort.Slice(vs, func(i, j int) bool { return vs[i].id < vs[j].id })
	for _, v := range vs {
		fmt.Fprintf(&b, "  V%d w=%g bound=%g value=%g\n", v.id, v.weight, v.bound, v.value)
	}
	return b.String()
}
