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

var eventPool pool.List[*event]

func grabEvent() *event {
	if ev, ok := eventPool.Get(); ok {
		return ev
	}
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
	if eventPool.Len() < maxPooledEvents {
		eventPool.Put(ev)
	}
}

// EventPoolStats reports the trace event free list's scoreboard.
func EventPoolStats() PoolStat { return eventPool.Stat() }
