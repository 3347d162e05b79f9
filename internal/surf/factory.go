package surf

// This file is the factory for pooled actions: the only place allowed
// to construct or scrub an Action by composite literal. simgrid-lint's
// pool-literal rule enforces that scope — a literal anywhere else
// would bypass the free list and break the "pools hold only scrubbed
// structs" invariant (DESIGN.md, "Object lifecycle & pooling").

// newAction returns a blank action (recycled from the free list when
// possible) with the shared creation bookkeeping filled in.
func (m *Model) newAction(kind ActionKind, name string) *Action {
	a, ok := m.actPool.Get()
	if !ok {
		a = &Action{}
	}
	a.model = m
	a.kind = kind
	a.name = name
	a.heapIdx = -1
	a.start = m.eng.Now()
	a.lastSync = a.start
	a.seq = m.nextSeq
	m.nextSeq++
	return a
}

// poolAction scrubs an action and returns it to the free list — the
// single owner of the "pools hold only zeroed structs" invariant.
func (m *Model) poolAction(a *Action) {
	*a = Action{}
	m.actPool.Put(a)
}
