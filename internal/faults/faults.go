// Package faults implements deterministic fault injection: seeded
// synthetic availability models (exponential and Weibull MTBF/MTTR per
// host/link class) compiled into explicit failure/recovery schedules,
// and an injector replaying a schedule onto a surf model through
// surf's Replay — the loop that replays state traces — so a "down"
// event carries exactly the FailHost/FailLink semantics the rest of
// the stack already handles (processes killed and optionally
// auto-restarted by msg, tasks failed and optionally rescheduled by
// simdag).
//
// Determinism is the point: a schedule is a pure function of
// (seed, Params). Each resource draws from its own sub-seeded
// generator (seed mixed with a hash of the resource name), so adding a
// resource to a class never shifts another resource's failure times,
// and Schedule.WriteTo renders the whole campaign byte-for-byte
// reproducibly — the replayable failure log the paper's availability
// traces provide, without hand-writing a trace.
package faults

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// Dist selects the lifetime distribution of a class.
type Dist int

// Supported distributions. Means are always the class's MTBF/MTTR.
const (
	// Exponential lifetimes: memoryless failures, the classic
	// availability-trace model.
	Exponential Dist = iota
	// Weibull lifetimes with the class's Shape parameter: shape < 1
	// models infant mortality (bursty failures), shape > 1 wear-out.
	// Shape 1 degenerates to Exponential.
	Weibull
)

func (d Dist) String() string {
	switch d {
	case Exponential:
		return "exponential"
	case Weibull:
		return "weibull"
	default:
		return "dist(?)"
	}
}

// Class describes one failure class: a set of resources sharing
// MTBF/MTTR statistics.
type Class struct {
	// Name labels the class in diagnostics (optional).
	Name string
	// Hosts and Links list the member resources by platform name.
	Hosts []string
	Links []string
	// MTBF is the mean time between failures (mean up-time), seconds.
	MTBF float64
	// MTTR is the mean time to repair (mean down-time), seconds.
	MTTR float64
	// Dist selects the lifetime distribution (default Exponential).
	Dist Dist
	// Shape is the Weibull shape parameter k (> 0); ignored for
	// Exponential.
	Shape float64
}

// Params is a complete campaign description.
type Params struct {
	Classes []Class
	// Horizon bounds the campaign: no failure starts at or after this
	// time. Every failure is paired with its recovery even when the
	// recovery lands past the horizon — a schedule never strands a
	// resource down.
	Horizon float64
}

// Event is one scheduled state flip.
type Event struct {
	At   float64 // absolute virtual time
	Name string  // resource (host or link) name
	Link bool    // link event (host otherwise)
	Up   bool    // recovery (failure otherwise)
}

// Schedule is a compiled campaign: the events, time-ordered.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Compile expands (seed, Params) into an explicit schedule. The result
// is a pure function of its arguments: same inputs, byte-identical
// schedule (see WriteTo).
func Compile(seed int64, p Params) (*Schedule, error) {
	if !positive(p.Horizon) {
		return nil, errors.New("faults: Params.Horizon must be finite and > 0")
	}
	s := &Schedule{Seed: seed}
	for ci := range p.Classes {
		c := &p.Classes[ci]
		up, down := c.scale(c.MTBF), c.scale(c.MTTR)
		switch {
		case !positive(c.MTBF) || !positive(c.MTTR):
			return nil, fmt.Errorf("faults: class %d (%s): MTBF and MTTR must be finite and > 0", ci, c.Name)
		case c.Dist == Weibull && !positive(c.Shape):
			return nil, fmt.Errorf("faults: class %d (%s): Weibull needs a finite Shape > 0", ci, c.Name)
		case !positive(up) || !positive(down):
			// Γ(1+1/k) overflows for a shape below about 0.0058: the
			// scale is 0 and no lifetime would ever advance the clock.
			return nil, fmt.Errorf("faults: class %d (%s): lifetime scales %g, %g out of range", ci, c.Name, up, down)
		}
		for _, h := range c.Hosts {
			s.compileResource(seed, c, up, down, h, false, p.Horizon)
		}
		for _, l := range c.Links {
			s.compileResource(seed, c, up, down, l, true, p.Horizon)
		}
	}
	slices.SortStableFunc(s.Events, order)
	return s, nil
}

// order is the merged schedule's order: time, hosts before links, name.
// The sort is stable, so one resource's events at one instant keep
// their draw order: a zero-length outage still flips the resource off
// and back on, and a zero-length recovery back on and off.
func order(a, b Event) int {
	if a.At != b.At {
		return cmp.Compare(a.At, b.At)
	}
	if a.Link != b.Link {
		if a.Link {
			return 1
		}
		return -1
	}
	return strings.Compare(a.Name, b.Name)
}

func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// compileResource unrolls one resource's alternating up/down lifetime
// draws, of scales up and down, into events from its own sub-seeded
// stream.
func (s *Schedule) compileResource(seed int64, c *Class, up, down float64, name string, link bool, horizon float64) {
	rng := rand.New(rand.NewSource(seed ^ subSeed(name, link)))
	t := 0.0
	for {
		t += c.draw(rng, up) // up-time until the next failure
		if t >= horizon {
			return
		}
		s.Events = append(s.Events, Event{At: t, Name: name, Link: link})
		t += c.draw(rng, down) // down-time until recovery
		// The paired recovery is always emitted, even past the horizon:
		// campaigns end with every resource back up.
		s.Events = append(s.Events, Event{At: t, Name: name, Link: link, Up: true})
	}
}

// subSeed hashes a resource's identity into a seed perturbation, so
// each resource owns an independent random stream: class membership
// and declaration order never shift another resource's draws.
func subSeed(name string, link bool) int64 {
	h := fnv.New64a()
	if link {
		io.WriteString(h, "link:")
	} else {
		io.WriteString(h, "host:")
	}
	io.WriteString(h, name)
	return int64(h.Sum64())
}

// scale is the lifetime scale λ giving the class's distribution the
// given mean: the mean itself for Exponential, mean / Γ(1 + 1/k) for
// Weibull.
func (c *Class) scale(mean float64) float64 {
	if c.Dist == Weibull {
		return mean / math.Gamma(1+1/c.Shape)
	}
	return mean
}

// draw samples one lifetime of scale lambda: X = λ·(−ln U)^(1/k) for
// Weibull, exponential with mean λ otherwise.
func (c *Class) draw(rng *rand.Rand, lambda float64) float64 {
	if c.Dist == Weibull {
		u := rng.Float64()
		return lambda * math.Pow(-math.Log(1-u), 1/c.Shape)
	}
	return rng.ExpFloat64() * lambda
}

// Len returns the number of events.
func (s *Schedule) Len() int { return len(s.Events) }

// WriteTo renders the schedule as one line per event —
//
//	<time> host|link <name> down|up
//
// with times in %.9e — the byte-for-byte replayable form determinism
// tests and CI diff across runs.
func (s *Schedule) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, ev := range s.Events {
		b.WriteString(strconv.FormatFloat(ev.At, 'e', 9, 64))
		if ev.Link {
			b.WriteString(" link ")
		} else {
			b.WriteString(" host ")
		}
		b.WriteString(ev.Name)
		if ev.Up {
			b.WriteString(" up\n")
		} else {
			b.WriteString(" down\n")
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the schedule in WriteTo's line format.
func (s *Schedule) String() string {
	var b strings.Builder
	s.WriteTo(&b)
	return b.String()
}
