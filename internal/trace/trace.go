// Package trace implements time-stamped value traces used to drive
// resource availability variations and transient failures during a
// simulation, mirroring SimGrid's trace files.
//
// A trace is an ordered list of (timestamp, value) events. For an
// availability trace the value is a scaling factor in [0, 1] applied to a
// resource capacity (CPU power or link bandwidth). For a state (failure)
// trace the value is 1 (resource up) or 0 (resource down).
//
// Traces may be periodic: after the last event the sequence restarts,
// shifted by the declared period. A non-periodic trace holds its last
// value forever.
//
// Key invariant: a trace is immutable once parsed, and Iter unrolls
// periodic repetitions lazily — surf's Replay pulls events one at a time,
// so an infinite periodic trace costs O(1) memory for the whole run.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Event is a single trace point: at time Time the traced quantity takes
// value Value and keeps it until the next event.
type Event struct {
	Time  float64
	Value float64
}

// Trace is an immutable sequence of events, optionally periodic.
// The zero value is an empty trace whose value is 1 at all times
// (i.e. "always fully available").
type Trace struct {
	events []Event
	period float64 // 0 means non-periodic
}

// ErrBadTrace reports a malformed trace description.
var ErrBadTrace = errors.New("trace: malformed trace")

// New builds a trace from events; name labels its errors. Timestamps,
// values and the period must be finite; events must be sorted by
// strictly increasing, non-negative time. If period > 0 the trace
// repeats with that period, which must be at least the last timestamp.
func New(name string, events []Event, period float64) (*Trace, error) {
	for i, e := range events {
		switch {
		case !finite(e.Time) || !finite(e.Value):
			return nil, fmt.Errorf("%w: %s: event %d (%g, %g) is not finite", ErrBadTrace, name, i, e.Time, e.Value)
		case e.Time < 0:
			return nil, fmt.Errorf("%w: %s: negative timestamp %g", ErrBadTrace, name, e.Time)
		case i > 0 && e.Time <= events[i-1].Time:
			return nil, fmt.Errorf("%w: %s: timestamps not strictly increasing at index %d", ErrBadTrace, name, i)
		}
	}
	if !finite(period) || period < 0 {
		return nil, fmt.Errorf("%w: %s: period %g", ErrBadTrace, name, period)
	}
	if period > 0 && len(events) > 0 && events[len(events)-1].Time > period {
		return nil, fmt.Errorf("%w: %s: period %g shorter than last event %g", ErrBadTrace, name, period, events[len(events)-1].Time)
	}
	return &Trace{events: append([]Event(nil), events...), period: period}, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// MustNew is New but panics on error; it is meant for static tables in
// tests and examples.
func MustNew(name string, events []Event, period float64) *Trace {
	t, err := New(name, events, period)
	if err != nil {
		panic(err)
	}
	return t
}

// Parse reads the SimGrid-like textual trace format:
//
//	# comment
//	PERIODICITY 12.0
//	0.0  1.0
//	11.0 0.5
//
// Lines are "timestamp value" pairs; an optional PERIODICITY (or
// LOOPAFTER) directive makes the trace periodic.
func Parse(name string, r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	var events []Event
	period := 0.0
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch strings.ToUpper(fields[0]) {
		case "PERIODICITY", "LOOPAFTER":
			if len(fields) != 2 {
				return nil, fmt.Errorf("%w: line %d: PERIODICITY needs one argument", ErrBadTrace, lineno)
			}
			p, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrBadTrace, lineno, err)
			}
			period = p
		default:
			if len(fields) != 2 {
				return nil, fmt.Errorf("%w: line %d: want 'time value'", ErrBadTrace, lineno)
			}
			ts, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrBadTrace, lineno, err)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrBadTrace, lineno, err)
			}
			events = append(events, Event{Time: ts, Value: v})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(name, events, period)
}

// ParseString is Parse over an in-memory string.
func ParseString(name, s string) (*Trace, error) {
	return Parse(name, strings.NewReader(s))
}

// Len returns the number of events in one period of the trace.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Periodic reports whether the trace repeats forever.
func (t *Trace) Periodic() bool { return t != nil && t.period > 0 }

// At returns the trace value at absolute time ts. Before the first event
// the value is 1 (fully available / up).
func (t *Trace) At(ts float64) float64 {
	if t == nil || len(t.events) == 0 {
		return 1
	}
	if t.period > 0 && ts >= 0 {
		cycles := int(ts / t.period)
		ts -= float64(cycles) * t.period
	}
	// Find the last event with Time <= ts.
	i := sort.Search(len(t.events), func(i int) bool { return t.events[i].Time > ts })
	if i == 0 {
		return 1
	}
	return t.events[i-1].Value
}

// Iterator walks the events of a trace over absolute simulated time,
// transparently unrolling periodic traces. Next returns events in
// non-decreasing time order, forever for periodic traces.
type Iterator struct {
	t      *Trace
	idx    int
	offset float64
}

// Iter returns an iterator positioned at the first event at or after
// time `from`.
func (t *Trace) Iter(from float64) *Iterator {
	it := &Iterator{t: t}
	if t == nil || len(t.events) == 0 {
		it.idx = -1
		return it
	}
	if t.period > 0 && from > 0 {
		cycles := int(from / t.period)
		it.offset = float64(cycles) * t.period
	}
	for {
		if it.idx >= len(t.events) {
			if t.period == 0 {
				it.idx = -1
				return it
			}
			it.idx = 0
			it.offset += t.period
		}
		if it.idx == -1 || it.offset+t.events[it.idx].Time >= from {
			return it
		}
		it.idx++
	}
}

// Peek returns the absolute time and value of the next event without
// consuming it. ok is false when the trace is exhausted — including a
// periodic trace unrolled past the largest finite time.
func (it *Iterator) Peek() (ts, v float64, ok bool) {
	if it.idx < 0 || it.t == nil || len(it.t.events) == 0 {
		return 0, 0, false
	}
	e := it.t.events[it.idx]
	ts = it.offset + e.Time
	return ts, e.Value, !math.IsInf(ts, 1)
}

// Next consumes and returns the next event. ok is false when the trace
// is exhausted (only possible for non-periodic traces).
func (it *Iterator) Next() (ts, v float64, ok bool) {
	ts, v, ok = it.Peek()
	if !ok {
		return
	}
	it.idx++
	if it.idx >= len(it.t.events) {
		if it.t.period > 0 {
			it.idx = 0
			it.offset += it.t.period
		} else {
			it.idx = -1
		}
	}
	return
}
