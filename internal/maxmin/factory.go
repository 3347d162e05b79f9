package maxmin

// This file is the factory for the pooled solver objects: the only
// place allowed to construct (or scrub) a Variable or constraint
// element by composite literal. simgrid-lint's pool-literal rule
// enforces that scope — a literal anywhere else would bypass the free
// lists and break the "pools hold only scrubbed structs" invariant
// (DESIGN.md, "Object lifecycle & pooling").

// grabVariable pops a recycled variable off the free list, or
// allocates one. Pooled variables were scrubbed and dequeued by
// RemoveVariable; only the visit generation mark may be live, and it
// can never equal a future generation.
func (s *System) grabVariable() *Variable {
	if v, ok := s.varPool.Get(); ok {
		return v
	}
	return &Variable{dirtyQ: -1}
}

// grabElem pops a recycled constraint element off the free list, or
// allocates one.
func (s *System) grabElem() *elem {
	if e, ok := s.elemPool.Get(); ok {
		return e
	}
	return &elem{}
}

// releaseElem scrubs a detached element and returns it to the free
// list. The element must already be unlinked from both adjacency
// lists.
func (s *System) releaseElem(e *elem) {
	*e = elem{}
	s.elemPool.Put(e)
}
