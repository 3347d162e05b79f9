package maxmin

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// checkSummaries recomputes every variable's solver summary from its
// edges — the walk chain is the edges on constraints holding more than
// one variable, in cnsts order; ownR the smallest ownRatio over the own
// edges — and the count of constraints at zero capacity from the
// constraints, and fails the test where what the mutators kept differs.
func checkSummaries(t *testing.T, where string, s *System) {
	t.Helper()
	zero := 0
	for _, c := range s.cnsts {
		if c.capacity <= eps {
			zero++
		}
	}
	if zero != s.zeroCaps {
		t.Fatalf("%s: %d constraints at zero capacity, zeroCaps says %d", where, zero, s.zeroCaps)
	}
	for _, v := range s.vars {
		var walk []*elem
		ownR := math.Inf(1)
		for _, e := range v.cnsts {
			if len(e.c.elems) > 1 {
				walk = append(walk, e)
			}
			if r := ownRatio(e, v.weight); own(e.c) && r < ownR {
				ownR = r
			}
		}
		var kept []*elem
		for e := v.walk; e != nil && len(kept) <= len(v.cnsts); e = e.next {
			kept = append(kept, e)
		}
		if fmt.Sprint(kept) != fmt.Sprint(walk) {
			t.Fatalf("%s: V%d walks %v, its edges say %v", where, v.id, kept, walk)
		}
		if math.Float64bits(v.ownR) != math.Float64bits(ownR) {
			t.Fatalf("%s: V%d keeps ownR %v, its edges say %v", where, v.id, v.ownR, ownR)
		}
	}
}

// TestVariableSize: every simulated activity holds one Variable and an
// elem per resource it crosses, so their sizes are per-activity costs;
// both are carved from slabs, so every byte counts, not the size class.
// The solver summary (ownR, the walk chain head, and elem.next) fits in
// 112 bytes because Variable.idx shares a word with dirtyQ; an elem
// tracks its position in c.elems only. A Constraint's inline first
// elems slot keeps it in its 128-byte class.
func TestVariableSize(t *testing.T) {
	if got := unsafe.Sizeof(Variable{}); got > 112 {
		t.Errorf("Variable is %d bytes, want <= 112", got)
	}
	if got := unsafe.Sizeof(elem{}); got > 40 {
		t.Errorf("elem is %d bytes, want <= 40", got)
	}
	if got := unsafe.Sizeof(Constraint{}); got > 128 {
		t.Errorf("Constraint is %d bytes, want <= 128", got)
	}
}
