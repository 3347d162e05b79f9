package pool

// Stat is one free list's scoreboard: how many Gets were served from
// the list (Hit) vs sent back to the caller to allocate (Miss), and the
// list's current population (Free — at quiescence, the steady-state
// occupancy).
type Stat struct {
	Hit  uint64 `json:"hit"`
	Miss uint64 `json:"miss"`
	Free int    `json:"steady_free"`
}

// List is the one LIFO free list every pooled type is kept on, and the
// only reader of Enabled. It stores what it is given: scrubbing before
// Put, construction after a missed Get, any cap on Len and any lock are
// the owner's (the factory.go of each package).
type List[T any] struct {
	free      []T
	hit, miss uint64
}

// Get pops the most recently Put value. ok is false — the caller
// allocates — when the list is empty or pooling is off.
func (l *List[T]) Get() (x T, ok bool) {
	if n := len(l.free); Enabled && n > 0 {
		x = l.free[n-1]
		var zero T
		l.free[n-1] = zero
		l.free = l.free[:n-1]
		l.hit++
		return x, true
	}
	l.miss++
	return x, false
}

// Put pushes x; with pooling off it is dropped for the collector.
func (l *List[T]) Put(x T) {
	if Enabled {
		l.free = append(l.free, x)
	}
}

// Len is the number of values on the list.
func (l *List[T]) Len() int { return len(l.free) }

// Items is the list itself, oldest first, for tests that check what
// sits on it was scrubbed.
func (l *List[T]) Items() []T { return l.free }

// Stat reports the scoreboard.
func (l *List[T]) Stat() Stat { return Stat{Hit: l.hit, Miss: l.miss, Free: len(l.free)} }
