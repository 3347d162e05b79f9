package maxmin

// This file is the factory for the pooled solver objects: a miss carves
// a Variable or constraint element from the slabs, and only here may one
// be scrubbed by composite literal (simgrid-lint's pool-literal rule;
// DESIGN.md, "Object lifecycle & pooling": pools hold only scrubbed
// structs).

// grabVariable pops a recycled variable off the free list, or carves
// one with room for two edges. Pooled variables were scrubbed and
// dequeued by RemoveVariable; only the visit generation mark may be
// live, and it can never equal a future generation.
func (s *System) grabVariable() *Variable {
	if v, ok := s.varPool.Get(); ok {
		return v
	}
	v := s.varSlab.New()
	v.dirtyQ, v.cnsts = -1, s.edgeSlab.New()[:0]
	return v
}

// grabElem pops a recycled constraint element off the free list, or
// carves one.
func (s *System) grabElem() *elem {
	if e, ok := s.elemPool.Get(); ok {
		return e
	}
	return s.elemSlab.New()
}

// releaseElem scrubs a detached element and returns it to the free
// list. The element must already be unlinked from both adjacency
// lists.
func (s *System) releaseElem(e *elem) {
	*e = elem{}
	s.elemPool.Put(e)
}
