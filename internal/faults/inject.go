package faults

import (
	"fmt"

	"repro/internal/instr"
	"repro/internal/surf"
)

// Injector replays a compiled schedule onto a surf model through
// surf's Replay, so a campaign of any length costs a single timer for
// the whole run.
type Injector struct {
	sched *Schedule
	m     *surf.Model
	// OnEvent, when set, observes each event right after it is applied.
	// It runs in kernel context: it must not issue simcalls. Set it
	// before the first event fires (in practice, right after Arm).
	OnEvent func(Event)

	// Split of applied events into failures and recoveries (Up events).
	// The applied events are a prefix of the schedule, so their sum is
	// also the replay cursor.
	injections uint64
	recoveries uint64
}

// Arm validates the schedule against the model's platform and arms the
// replay. Events already in the past (At < now) are rejected — an
// injector is armed before the run, not spliced into one.
func Arm(sched *Schedule, m *surf.Model) (*Injector, error) {
	pf := m.Platform()
	for _, ev := range sched.Events {
		if ev.Link {
			if pf.Link(ev.Name) == nil {
				return nil, fmt.Errorf("faults: schedule names unknown link %q", ev.Name)
			}
		} else if pf.Host(ev.Name) == nil {
			return nil, fmt.Errorf("faults: schedule names unknown host %q", ev.Name)
		}
	}
	if now := m.Engine().Now(); len(sched.Events) > 0 && sched.Events[0].At < now {
		return nil, fmt.Errorf("faults: schedule starts at %g, before now (%g)", sched.Events[0].At, now)
	}
	in := &Injector{sched: sched, m: m}
	m.Replay(func() (float64, bool) {
		if i := in.Applied(); i < len(sched.Events) {
			return sched.Events[i].At, true
		}
		return 0, false
	}, func() { in.apply(sched.Events[in.Applied()]) })
	return in, nil
}

// apply flips one resource and notifies the observer. Failing or
// restoring an already-failed/restored resource is benign at the surf
// layer, so overlapping classes compose without bookkeeping here.
func (in *Injector) apply(ev Event) {
	var err error
	switch {
	case ev.Link && ev.Up:
		err = in.m.RestoreLink(ev.Name)
	case ev.Link:
		err = in.m.FailLink(ev.Name)
	case ev.Up:
		err = in.m.RestoreHost(ev.Name)
	default:
		err = in.m.FailHost(ev.Name)
	}
	if err != nil {
		// Names were validated at Arm time; surf only errors on unknown
		// resources, so this is unreachable — but don't swallow it.
		panic(err)
	}
	if ev.Up {
		in.recoveries++
	} else {
		in.injections++
	}
	if in.OnEvent != nil {
		in.OnEvent(ev)
	}
}

// Applied reports how many events have been injected so far.
func (in *Injector) Applied() int { return int(in.injections + in.recoveries) }

// MetricsInto dumps the injector's counters into r (faults.*
// namespace): how many failure events were injected and how many
// recovery (Up) events restored a resource.
func (in *Injector) MetricsInto(r *instr.Registry) {
	if r == nil {
		return
	}
	r.Add("faults.injections", in.injections)
	r.Add("faults.recoveries", in.recoveries)
	r.Set("faults.schedule_events", float64(len(in.sched.Events)))
}
