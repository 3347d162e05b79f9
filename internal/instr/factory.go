package instr

import "repro/internal/pool"

// Free list for trace event records. This is the only place an event
// composite literal may appear (lint: pool-literal); grab everywhere,
// release after formatting, scrub on release. The pool is
// simulation-context-only like the Trace that feeds it, so it needs
// no lock.

// maxPooledEvents bounds the free list; events beyond it are dropped
// for the GC. flushBatch is far below this, so in practice every
// event recycles.
const maxPooledEvents = 4096

var eventPool struct {
	free      []*event
	hit, miss uint64
}

func grabEvent() *event {
	if pool.Enabled {
		if n := len(eventPool.free); n > 0 {
			ev := eventPool.free[n-1]
			eventPool.free[n-1] = nil
			eventPool.free = eventPool.free[:n-1]
			eventPool.hit++
			return ev
		}
	}
	eventPool.miss++
	return &event{args: make([]string, 0, 6)}
}

func releaseEvent(ev *event) {
	for i := range ev.args {
		ev.args[i] = ""
	}
	ev.args = ev.args[:0]
	ev.id = 0
	ev.timed = false
	ev.time = 0
	ev.hasVal = false
	ev.val = 0
	if pool.Enabled && len(eventPool.free) < maxPooledEvents {
		eventPool.free = append(eventPool.free, ev)
	}
}

// EventPoolStats reports the trace event free list's scoreboard.
func EventPoolStats() PoolStat {
	return PoolStat{Hit: eventPool.hit, Miss: eventPool.miss, Free: len(eventPool.free)}
}
