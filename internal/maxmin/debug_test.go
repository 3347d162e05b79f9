package maxmin

import (
	"fmt"
	"sort"
	"strings"
)

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
