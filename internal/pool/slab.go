package pool

import "unsafe"

// chunkBytes is the size of one Slab chunk: the 8 KiB size class, less
// the 8-byte header the runtime puts before an object that large when it
// holds pointers. A chunk holds as many values as fit in it, so it
// loses to rounding only the remainder of one value.
const chunkBytes = 8<<10 - 8

// Slab is the miss path of a factory: it hands out zeroed values carved
// from chunks of up to chunkBytes, so the first uses of a pooled type
// cost one allocation a chunk instead of one a value. A carved value
// goes back on its owner's List, never to the Slab, and a chunk stays
// alive while any value carved from it does. Each Slab belongs to one
// engine-level owner (a maxmin System, a surf Model, an msg Environment,
// a Platform), so it holds no global state and needs no lock. It does
// not read Enabled: with pooling off every Get misses and every miss
// still carves.
type Slab[E any] struct {
	free []E // the current chunk's uncarved tail
}

// New returns one zeroed value.
func (s *Slab[E]) New() *E { return &s.Make(1)[0] }

// Make returns n consecutive zeroed values. The slice's capacity is n,
// so an append to it reallocates instead of overrunning the next carve.
// When the current chunk's tail is too short, the tail is dropped and a
// new chunk begins; n values that would not fit in any chunk are
// allocated on their own.
func (s *Slab[E]) Make(n int) []E {
	if n > len(s.free) {
		per := chunkLen[E]()
		if n > per {
			return make([]E, n)
		}
		s.free = make([]E, per)
	}
	x := s.free[:n:n]
	s.free = s.free[n:]
	return x
}

// Join returns the parts concatenated in bytes carved from s. A carved
// byte is never written again, so the string shares them: names built
// this way cost one allocation a chunk instead of one a string.
func Join(s *Slab[byte], parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return ""
	}
	b := s.Make(n)[:0]
	for _, p := range parts {
		b = append(b, p...)
	}
	return unsafe.String(&b[0], n)
}

// chunkLen is how many values of E one chunk holds: as many as fit in
// chunkBytes, and at least one.
func chunkLen[E any]() int {
	var e E
	return max(1, chunkBytes/max(1, int(unsafe.Sizeof(e))))
}
