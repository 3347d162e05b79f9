// Resource-state dynamics: availability traces rescale capacity; state
// traces and fault campaigns (package faults) turn resources off and on.
// Replay drives each such stream with one re-armable engine timer.

package surf

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// Replay drives one time-ordered stream of resource-state events with one
// engine timer. next reports the time of the first event not yet applied
// (ok false once the stream is exhausted); apply applies that event and
// moves past it. The timer applies every event due at its firing instant
// in stream order, then re-arms at the next later time. A "down" event
// fails every in-flight action crossing the resource (setResourceState).
func (m *Model) Replay(next func() (at float64, ok bool), apply func()) {
	at, ok := next()
	if !ok {
		return
	}
	var tm *core.Timer
	tm = m.eng.At(at, func() {
		for {
			apply()
			at, ok := next()
			if !ok {
				return // stream exhausted: the timer dies here
			}
			if at > m.eng.Now() {
				tm.Rearm(at)
				return
			}
		}
	})
}

// scheduleTraces arms a resource's traces; trace-less ones allocate nothing.
func (m *Model) scheduleTraces(r *resource, avail, state *trace.Trace) {
	if avail.Len() > 0 {
		m.armTrace(avail, func(v float64) { m.setResourceAvail(r, v) })
	}
	if state.Len() > 0 {
		m.armTrace(state, func(v float64) { m.setResourceState(r, v > 0.5) })
		if r.isHost && state.Periodic() {
			m.stateLooped = append(m.stateLooped, r.host)
		}
	}
}

// armTrace replays a trace. A periodic one keeps one timer pending
// forever, counted in loops.
func (m *Model) armTrace(tr *trace.Trace, apply func(v float64)) {
	if tr.Periodic() {
		m.loops++
	}
	it := tr.Iter(m.eng.Now())
	m.Replay(func() (float64, bool) { ts, _, ok := it.Peek(); return ts, ok },
		func() { _, v, _ := it.Next(); apply(v) })
}

// Quiet implements core.Model: with nothing in flight and no timer but
// the periodic replays pending, a replayed change reaches no one, unless
// the host observer watches a periodically traced host.
func (m *Model) Quiet() bool {
	quiet := len(m.heap) == 0 && m.eng.PendingTimers() == m.loops
	for _, h := range m.stateLooped {
		quiet = quiet && (m.Observer == nil || !m.Observer.Watches(h))
	}
	return quiet
}
