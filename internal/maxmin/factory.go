package maxmin

import "repro/internal/pool"

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
	if n := len(s.varPool); pool.Enabled && n > 0 {
		v := s.varPool[n-1]
		s.varPool[n-1] = nil
		s.varPool = s.varPool[:n-1]
		s.varPoolHit++
		return v
	}
	s.varPoolMiss++
	return &Variable{dirtyQ: -1}
}

// grabElem pops a recycled constraint element off the free list, or
// allocates one.
func (s *System) grabElem() *elem {
	if n := len(s.elemPool); pool.Enabled && n > 0 {
		e := s.elemPool[n-1]
		s.elemPool[n-1] = nil
		s.elemPool = s.elemPool[:n-1]
		s.elemPoolHit++
		return e
	}
	s.elemPoolMiss++
	return &elem{}
}

// releaseElem scrubs a detached element and returns it to the free
// list. The element must already be unlinked from both adjacency
// lists.
func (s *System) releaseElem(e *elem) {
	*e = elem{}
	if pool.Enabled {
		s.elemPool = append(s.elemPool, e)
	}
}
