package surf

import "math/bits"

// actionHeap is an indexed 4-ary min-heap over the model's in-flight
// actions, keyed on each action's next event time (the end of its
// latency phase while that is being paid, its absolute completion
// estimate afterwards). It implements SimGrid's "lazy action
// management": NextEventTime is a peek and AdvanceTo pops only due
// actions, instead of min-scanning every action per step.
//
// Keys change only when an action's rate changes (reported by
// maxmin.System.Updated after a solve) or when its latency phase ends,
// so the heap is re-keyed incrementally: O(log n) per changed action
// rather than O(n) per step. Each entry carries its key inline — a
// sift compares contiguous heap entries instead of dereferencing
// scattered Action structs, which is most of the event machinery's
// cache traffic at 10k+ concurrent actions.
type actionHeap []heapEntry

// heapEntry pairs an action with its cached event key. The key is
// refreshed from eventKey() at push/fix time; between re-keys it is
// authoritative for ordering.
type heapEntry struct {
	key float64
	a   *Action
}

// eventKey is the heap key: the absolute time of the action's next
// event. Suspended or starved bandwidth-phase actions have estFinish
// +Inf and sink to the bottom.
func (a *Action) eventKey() float64 {
	if a.latUntil > 0 {
		return a.latUntil
	}
	return a.estFinish
}

func (h actionHeap) less(i, j int) bool { return h[i].key < h[j].key }

func (h actionHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].a.heapIdx = i
	h[j].a.heapIdx = j
}

// The heap is 4-ary: half the depth of a binary heap, and the four
// children of a node are adjacent in memory, so a sift touches fewer,
// better-clustered cache lines — measurable at 10k+ in-flight actions.
const heapArity = 4

func (h actionHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h actionHeap) down(i int) {
	n := len(h)
	for {
		l := heapArity*i + 1
		if l >= n {
			break
		}
		m := l
		hi := l + heapArity
		if hi > n {
			hi = n
		}
		for c := l + 1; c < hi; c++ {
			if h.less(c, m) {
				m = c
			}
		}
		if !h.less(m, i) {
			break
		}
		h.swap(i, m)
		i = m
	}
}

// bulkCheaper is the crossover between re-keying k of the heap's n
// entries one sift at a time — about k·log n swap steps — and rewriting
// their keys in place and rebuilding by one heapify over all n. Only
// refresh's rate-change re-key chooses by it: a completion on a
// contended link moves every rate on that link at once.
func bulkCheaper(k, n int) bool { return k*bits.Len(uint(n)) >= 4*n }

// heapify restores the invariant over arbitrary keys in one O(n)
// bottom-up pass (Floyd).
func (h actionHeap) heapify() {
	for i := (len(h) - 2) / heapArity; i >= 0; i-- {
		h.down(i)
	}
}

// push inserts a (which must not be in the heap) and records its index.
func (h *actionHeap) push(a *Action) {
	a.heapIdx = len(*h)
	*h = append(*h, heapEntry{key: a.eventKey(), a: a})
	h.up(a.heapIdx)
}

// fix re-reads the key of h[i]'s action and restores the invariant.
func (h actionHeap) fix(i int) {
	h[i].key = h[i].a.eventKey()
	h.up(i)
	h.down(i)
}

// remove deletes h[i] from the heap and clears its index.
func (h *actionHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	a := old[i].a
	if i != n {
		old.swap(i, n)
	}
	old[n] = heapEntry{} // release for the collector
	*h = old[:n]
	if i != n {
		(*h).fix(i)
	}
	a.heapIdx = -1
}

// collectDue appends to buf every action whose event key is <= maxKey,
// without restructuring the heap. The matching actions form a
// parent-closed prefix of the tree (a child never keys below its
// parent), so a pruned DFS visits O(k) nodes for k matches. stack is
// caller-owned scratch; both grown slices are returned for reuse.
func (h actionHeap) collectDue(maxKey float64, buf []*Action, stack []int) ([]*Action, []int) {
	n := len(h)
	if n == 0 || h[0].key > maxKey {
		return buf, stack
	}
	// All-due shortcut: keys never decrease toward the leaves, so if
	// every leaf is due the whole heap is — a straight copy, no DFS.
	// (The scan aborts at the first non-due leaf, so a mixed heap pays
	// almost nothing for the attempt.)
	allDue := true
	for i := (n - 2) / heapArity; i < n; i++ {
		if h[i].key > maxKey {
			allDue = false
			break
		}
	}
	if allDue {
		for i := range h {
			buf = append(buf, h[i].a)
		}
		return buf, stack
	}
	stack = append(stack[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = append(buf, h[i].a)
		l := heapArity*i + 1
		hi := l + heapArity
		if hi > len(h) {
			hi = len(h)
		}
		for c := l; c < hi; c++ {
			if h[c].key <= maxKey {
				stack = append(stack, c)
			}
		}
	}
	return buf, stack
}
