// Fixture for pool-literal, registration side: every type kept on a
// pool.List must be a configured pooled type, or its literals escape
// the rule (maxmin's elem was pooled for many changes before it was
// registered).
package poollist

import "repro/internal/pool"

type registered struct{ id int }

type unregistered struct{ id int }

type owner struct {
	known  pool.List[*registered]
	stray  pool.List[*unregistered]    // want "poollist.unregistered is kept on a pool.List but is not a pooled type"
	paired [2]pool.List[*unregistered] // want "poollist.unregistered is kept on a pool.List but is not a pooled type"
	slices pool.List[[]*unregistered]  // a list of slices: no struct to build by literal
	plain  []*unregistered             // not a free list
}

var _ = owner{}
