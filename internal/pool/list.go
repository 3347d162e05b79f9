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

// firstSeg is the capacity of a list's first segment; each next one
// doubles it.
const firstSeg = 8

// List is the one LIFO free list every pooled type is kept on, and the
// only reader of Enabled. It stores what it is given: scrubbing before
// Put, construction after a missed Get, any cap on Len and any lock are
// the owner's (the factory.go of each package).
//
// The values sit in segments of capacity 8, 16, 32, … that are never
// copied or freed: a list that peaks at N values owns at most 2N+8
// slots, each written once per Put, where a regrown slice would copy
// its whole past on every growth.
type List[T any] struct {
	cur       []T   // segs[top] up to its last value: Put fills it, Get pops it
	segs      [][]T // every segment made, at full length; those below top are full
	top       int
	hit, miss uint64
}

// Get pops the most recently Put value. ok is false — the caller
// allocates — when the list is empty or pooling is off.
func (l *List[T]) Get() (x T, ok bool) {
	if n := len(l.cur); Enabled && n > 0 {
		x = l.cur[n-1]
		var zero T
		l.cur[n-1] = zero
		l.cur = l.cur[:n-1]
		if n == 1 && l.top > 0 {
			l.top--
			l.cur = l.segs[l.top]
		}
		l.hit++
		return x, true
	}
	l.miss++
	return x, false
}

// Put pushes x; with pooling off it is dropped for the collector.
func (l *List[T]) Put(x T) {
	if !Enabled {
		return
	}
	if len(l.cur) == cap(l.cur) {
		l.next()
	}
	l.cur = append(l.cur, x)
}

// next moves Put on to the segment above the full one, making it the
// first time the list grows that far.
func (l *List[T]) next() {
	if len(l.segs) > 0 {
		l.top++
	}
	if l.top == len(l.segs) {
		l.segs = append(l.segs, make([]T, firstSeg<<l.top))
	}
	l.cur = l.segs[l.top][:0]
}

// Len is the number of values on the list.
func (l *List[T]) Len() int { return firstSeg<<l.top - firstSeg + len(l.cur) }

// Items is a copy of the list, oldest first, for tests that check what
// sits on it was scrubbed.
func (l *List[T]) Items() []T {
	var all []T
	for _, s := range l.segs[:l.top] {
		all = append(all, s...)
	}
	return append(all, l.cur...)
}

// Stat reports the scoreboard.
func (l *List[T]) Stat() Stat { return Stat{Hit: l.hit, Miss: l.miss, Free: l.Len()} }
