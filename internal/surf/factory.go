package surf

// This file is the factory for pooled actions: a miss carves one from
// the slab, and only here may an Action be scrubbed by composite literal
// (simgrid-lint's pool-literal rule; DESIGN.md, "Object lifecycle &
// pooling": pools hold only scrubbed structs).

// newAction returns a blank action (recycled from the free list when
// possible, else carved) with the shared creation bookkeeping filled in.
func (m *Model) newAction(kind ActionKind, name string) *Action {
	a, ok := m.actPool.Get()
	if !ok {
		a = m.actSlab.New()
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
