package faults

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/platform"
	"repro/internal/pool/pooltest"
	"repro/internal/surf"
)

func mustCompile(t *testing.T, seed int64, p Params) *Schedule {
	t.Helper()
	s, err := Compile(seed, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompileValidation(t *testing.T) {
	cases := []struct {
		name string
		p    Params
	}{
		{"zero horizon", Params{Classes: []Class{{Hosts: []string{"h"}, MTBF: 1, MTTR: 1}}}},
		{"zero mtbf", Params{Horizon: 10, Classes: []Class{{Hosts: []string{"h"}, MTTR: 1}}}},
		{"zero mttr", Params{Horizon: 10, Classes: []Class{{Hosts: []string{"h"}, MTBF: 1}}}},
		{"weibull no shape", Params{Horizon: 10, Classes: []Class{{Hosts: []string{"h"}, MTBF: 1, MTTR: 1, Dist: Weibull}}}},
		{"infinite mttr", Params{Horizon: 10, Classes: []Class{{Hosts: []string{"h"}, MTBF: 1, MTTR: math.Inf(1)}}}},
		{"nan shape", Params{Horizon: 10, Classes: []Class{{Hosts: []string{"h"}, MTBF: 1, MTTR: 1, Dist: Weibull, Shape: math.NaN()}}}},
		{"infinite shape", Params{Horizon: 10, Classes: []Class{{Hosts: []string{"h"}, MTBF: 1, MTTR: 1, Dist: Weibull, Shape: math.Inf(1)}}}},
	}
	for _, c := range cases {
		if _, err := Compile(1, c.p); err == nil {
			t.Errorf("%s: Compile accepted invalid params", c.name)
		}
	}
}

// TestCompileReturns: parameters that leave Compile's lifetime loop
// unable to reach the horizon — an infinite horizon, a NaN mean, a
// Weibull shape whose Γ(1+1/k) overflows to a zero scale — are
// rejected. A runaway Compile allocates until the process is killed, so
// each case runs against a deadline that takes the test binary down
// with it.
func TestCompileReturns(t *testing.T) {
	class := func(mtbf, shape float64) []Class {
		c := Class{Hosts: []string{"h"}, MTBF: mtbf, MTTR: 1}
		if shape > 0 {
			c.Dist, c.Shape = Weibull, shape
		}
		return []Class{c}
	}
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"horizon inf", Params{Horizon: math.Inf(1), Classes: class(3, 0)}},
		{"mtbf nan", Params{Horizon: 10, Classes: class(math.NaN(), 0)}},
		{"shape 0.005", Params{Horizon: 10, Classes: class(3, 0.005)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done, p := make(chan error, 1), tc.p
			go func() { _, err := Compile(1, p); done <- err }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("Compile accepted %+v", tc.p)
				}
			case <-time.After(time.Second):
				panic(fmt.Sprintf("%s: Compile did not return within 1s", tc.name))
			}
		})
	}
}

// FuzzCompile: any one-class campaign compiles to an error or to a
// schedule in Compile's order in which each resource alternates
// down/up, starting down, ending up, every up at or after its down.
// Horizons more than 1000 lifetime scales long are skipped: they are
// slow, not wrong.
func FuzzCompile(f *testing.F) {
	f.Add(int64(1), 10.0, 3.0, 1.0, false, 0.0)
	f.Add(int64(7), 200.0, 10.0, 8.0, true, 0.7)
	f.Fuzz(func(t *testing.T, seed int64, horizon, mtbf, mttr float64, weibull bool, shape float64) {
		c := Class{Hosts: []string{"h"}, Links: []string{"h"}, MTBF: mtbf, MTTR: mttr, Shape: shape}
		if weibull {
			c.Dist = Weibull
		}
		for _, lambda := range []float64{c.scale(mtbf), c.scale(mttr)} {
			if positive(horizon) && positive(lambda) && horizon/lambda > 1000 {
				t.Skip()
			}
		}
		s, err := Compile(seed, Params{Horizon: horizon, Classes: []Class{c}})
		if err != nil {
			return
		}
		if !slices.IsSortedFunc(s.Events, order) {
			t.Fatalf("schedule out of order:\n%s", s)
		}
		down := map[bool]*Event{} // open failure per resource (keyed by Link)
		for i := range s.Events {
			ev := &s.Events[i]
			switch open := down[ev.Link]; {
			case !ev.Up && open == nil:
				down[ev.Link] = ev
			case ev.Up && open != nil && ev.At >= open.At:
				down[ev.Link] = nil
			default:
				t.Fatalf("event %d (%+v) does not pair with %+v:\n%s", i, *ev, open, s)
			}
		}
		if down[false] != nil || down[true] != nil {
			t.Fatalf("a resource ends down:\n%s", s)
		}
	})
}

// TestFaultScheduleDeterminism pins the tentpole's core contract: a
// schedule is a pure function of (seed, params) — identical bytes on
// every compile — and an injected run replays it identically.
func TestFaultScheduleDeterminism(t *testing.T) {
	p := Params{
		Horizon: 1000,
		Classes: []Class{
			{Name: "cpus", Hosts: []string{"a", "b", "c"}, MTBF: 40, MTTR: 5},
			{Name: "wan", Links: []string{"l0", "l1"}, MTBF: 90, MTTR: 2, Dist: Weibull, Shape: 0.7},
		},
	}
	ref := string(pooltest.Replay(t, 5, func() []byte { return []byte(mustCompile(t, 42, p).String()) }))
	if ref == "" {
		t.Fatal("empty schedule: horizon/MTBF tuning produced no events")
	}
	if other := mustCompile(t, 43, p).String(); other == ref {
		t.Fatal("different seed produced an identical schedule")
	}

	// Replaying the schedule through the injector must produce an
	// identical event log across runs: same times, same order.
	pooltest.Replay(t, 5, func() []byte {
		eng := core.New()
		pf := faultsPlatform(t)
		m := surf.New(eng, pf, surf.DefaultConfig())
		sched := mustCompile(t, 42, Params{
			Horizon: 500,
			Classes: []Class{{Hosts: []string{"a", "b"}, Links: []string{"l0"}, MTBF: 30, MTTR: 4}},
		})
		in, err := Arm(sched, m)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		in.OnEvent = func(ev Event) {
			fmt.Fprintf(&b, "%.9e %v %s %v\n", eng.Now(), ev.Link, ev.Name, ev.Up)
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		if in.Applied() != sched.Len() {
			t.Fatalf("applied %d of %d events", in.Applied(), sched.Len())
		}
		return b.Bytes()
	})
}

// TestTrailingRecovery: every failure is paired with its recovery, even
// past the horizon — per resource the events strictly alternate
// down/up and end up.
func TestTrailingRecovery(t *testing.T) {
	s := mustCompile(t, 7, Params{
		Horizon: 200,
		Classes: []Class{{Hosts: []string{"x", "y"}, Links: []string{"l"}, MTBF: 10, MTTR: 8}},
	})
	last := map[string]bool{}   // resource -> last direction seen (true = up)
	opened := map[string]bool{} // resource -> has any events
	for _, ev := range s.Events {
		k := ev.Name
		if ev.Link {
			k = "link:" + k
		}
		if opened[k] && ev.Up == last[k] {
			t.Fatalf("resource %s: consecutive %v events", k, ev.Up)
		}
		if !opened[k] && ev.Up {
			t.Fatalf("resource %s: first event is a recovery", k)
		}
		opened[k], last[k] = true, ev.Up
	}
	for k, up := range last {
		if !up {
			t.Errorf("resource %s ends down: missing trailing recovery", k)
		}
	}
	if len(opened) != 3 {
		t.Fatalf("expected events for 3 resources, got %d", len(opened))
	}
	// No failure starts at or after the horizon.
	for _, ev := range s.Events {
		if !ev.Up && ev.At >= 200 {
			t.Errorf("failure at %g, past horizon 200", ev.At)
		}
	}
}

// TestResourceStreamIndependence: each resource draws from its own
// sub-seeded stream, so growing a class leaves existing resources'
// events untouched.
func TestResourceStreamIndependence(t *testing.T) {
	base := Params{Horizon: 500, Classes: []Class{{Hosts: []string{"a"}, MTBF: 20, MTTR: 3}}}
	grown := Params{Horizon: 500, Classes: []Class{{Hosts: []string{"a", "zz"}, MTBF: 20, MTTR: 3}}}
	onlyA := func(s *Schedule) string {
		var b strings.Builder
		for _, ev := range s.Events {
			if ev.Name == "a" {
				fmt.Fprintf(&b, "%.9e %v\n", ev.At, ev.Up)
			}
		}
		return b.String()
	}
	if onlyA(mustCompile(t, 5, base)) != onlyA(mustCompile(t, 5, grown)) {
		t.Fatal("adding a resource to the class shifted another resource's events")
	}
}

// TestLifetimeMeans: sampled up-times track MTBF and down-times MTTR
// for both distributions (law of large numbers, loose tolerance).
func TestLifetimeMeans(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Class
	}{
		{"exponential", Class{MTBF: 10, MTTR: 1}},
		{"weibull k=0.7", Class{MTBF: 10, MTTR: 1, Dist: Weibull, Shape: 0.7}},
		{"weibull k=2", Class{MTBF: 10, MTTR: 1, Dist: Weibull, Shape: 2}},
	} {
		c := tc.c
		c.Hosts = []string{"h"}
		s := mustCompile(t, 11, Params{Horizon: 200_000, Classes: []Class{c}})
		var upSum, downSum float64
		var n int
		prev := 0.0
		for _, ev := range s.Events {
			if ev.Up {
				downSum += ev.At - prev
			} else {
				upSum += ev.At - prev
				n++
			}
			prev = ev.At
		}
		if n < 1000 {
			t.Fatalf("%s: only %d failures sampled", tc.name, n)
		}
		if mean := upSum / float64(n); math.Abs(mean-10) > 1.0 {
			t.Errorf("%s: mean up-time %.3f, want ~10", tc.name, mean)
		}
		if mean := downSum / float64(n); math.Abs(mean-1) > 0.1 {
			t.Errorf("%s: mean down-time %.3f, want ~1", tc.name, mean)
		}
	}
}

// TestCompileUptimeFraction: over the horizon, an exponential host with
// MTBF 90 and MTTR 10 is up about 90/(90+10) of the time; an outage
// running past the horizon counts only up to it.
func TestCompileUptimeFraction(t *testing.T) {
	const horizon = 20000
	s := mustCompile(t, 5, Params{Horizon: horizon, Classes: []Class{{Hosts: []string{"h"}, MTBF: 90, MTTR: 10}}})
	var down, failed float64
	for _, ev := range s.Events {
		if ev.Up {
			down += math.Min(ev.At, horizon) - failed
		} else {
			failed = ev.At
		}
	}
	if f := 1 - down/horizon; math.Abs(f-0.9) > 0.07 {
		t.Errorf("uptime fraction %g, want ~0.9", f)
	}
}

// TestCompileRejectsNegativeParams: a negative horizon, MTBF or MTTR is
// rejected like a zero one (TestCompileValidation).
func TestCompileRejectsNegativeParams(t *testing.T) {
	host := func(mtbf, mttr float64) []Class {
		return []Class{{Hosts: []string{"h"}, MTBF: mtbf, MTTR: mttr}}
	}
	for name, p := range map[string]Params{
		"negative horizon": {Horizon: -10, Classes: host(1, 1)},
		"negative mtbf":    {Horizon: 10, Classes: host(-1, 1)},
		"negative mttr":    {Horizon: 10, Classes: host(1, -1)},
	} {
		if _, err := Compile(1, p); err == nil {
			t.Errorf("%s: Compile accepted invalid params", name)
		}
	}
}

// TestHostStateAlternates: a compiled exponential up/down process armed
// on one host flips it down and up in turn — up until a first failure
// after t=0, never down or up twice in a row, up at the end.
func TestHostStateAlternates(t *testing.T) {
	eng := core.New()
	m := surf.New(eng, faultsPlatform(t), surf.DefaultConfig())
	s := mustCompile(t, 11, Params{Horizon: 1000, Classes: []Class{{Hosts: []string{"a"}, MTBF: 50, MTTR: 10}}})
	if s.Len() < 2 {
		t.Fatalf("only %d events", s.Len())
	}
	if first := s.Events[0]; first.Up || first.At <= 0 {
		t.Fatalf("first event %+v, want a failure after t=0", first)
	}
	in, err := Arm(s, m)
	if err != nil {
		t.Fatal(err)
	}
	want := false // the host's state after the next event
	in.OnEvent = func(ev Event) {
		if up := m.HostUp("a"); up != want {
			t.Errorf("t=%g: host up %v after %+v, want %v", eng.Now(), up, ev, want)
		}
		want = !want
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if in.Applied() != s.Len() {
		t.Fatalf("applied %d of %d events", in.Applied(), s.Len())
	}
	if !m.HostUp("a") {
		t.Error("host ends down")
	}
}

func TestArmRejectsUnknownResource(t *testing.T) {
	eng := core.New()
	m := surf.New(eng, faultsPlatform(t), surf.DefaultConfig())
	s := &Schedule{Events: []Event{{At: 1, Name: "nope"}}}
	if _, err := Arm(s, m); err == nil {
		t.Fatal("Arm accepted a schedule naming an unknown host")
	}
	s = &Schedule{Events: []Event{{At: 1, Name: "nope", Link: true}}}
	if _, err := Arm(s, m); err == nil {
		t.Fatal("Arm accepted a schedule naming an unknown link")
	}
}

// TestInjectorFlipsState: a hand-written schedule drives real surf
// state transitions at the scheduled instants.
func TestInjectorFlipsState(t *testing.T) {
	eng := core.New()
	m := surf.New(eng, faultsPlatform(t), surf.DefaultConfig())
	s := &Schedule{Events: []Event{
		{At: 1, Name: "a"},
		{At: 2, Name: "l0", Link: true},
		{At: 3, Name: "a", Up: true},
		{At: 3, Name: "l0", Link: true, Up: true},
	}}
	in, err := Arm(s, m)
	if err != nil {
		t.Fatal(err)
	}
	type sample struct{ hostUp, linkUp bool }
	got := map[float64]sample{}
	in.OnEvent = func(Event) {
		got[eng.Now()] = sample{m.HostUp("a"), m.LinkUp("l0")}
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if in.Applied() != 4 {
		t.Fatalf("applied %d events, want 4", in.Applied())
	}
	want := map[float64]sample{
		1: {false, true},
		2: {false, false},
		3: {true, true}, // after both same-instant recoveries
	}
	for at, w := range want {
		if got[at] != w {
			t.Errorf("t=%g: state %+v, want %+v", at, got[at], w)
		}
	}
}

// TestSameInstantReplayOrder pins the replay of same-instant events:
// two hosts failing at once, a zero-length outage, and a link flapping
// in place are applied in the schedule's order, by one timer.
func TestSameInstantReplayOrder(t *testing.T) {
	eng := core.New()
	m := surf.New(eng, faultsPlatform(t), surf.DefaultConfig())
	s := &Schedule{Events: []Event{
		{At: 1, Name: "a"},
		{At: 1, Name: "b"},
		{At: 1, Name: "b", Up: true},
		{At: 2, Name: "a", Up: true},
		{At: 3, Name: "l0", Link: true},
		{At: 3, Name: "l0", Link: true, Up: true},
	}}
	victim, err := m.ExecuteHandle(m.HostHandle("b"), 1e12, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Arm(s, m)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	in.OnEvent = func(ev Event) {
		log = append(log, fmt.Sprintf("%g %s %v a=%v b=%v l0=%v", eng.Now(), ev.Name, ev.Up,
			m.HostUp("a"), m.HostUp("b"), m.LinkUp("l0")))
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"1 a false a=false b=true l0=true",
		"1 b false a=false b=false l0=true",
		"1 b true a=false b=true l0=true",
		"2 a true a=true b=true l0=true",
		"3 l0 false a=true b=true l0=false",
		"3 l0 true a=true b=true l0=true",
	}
	if strings.Join(log, "\n") != strings.Join(want, "\n") {
		t.Errorf("applied:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
	if !errors.Is(victim.Err(), surf.ErrHostFailed) {
		t.Errorf("exec on b across its zero-length outage: err %v, want ErrHostFailed", victim.Err())
	}
	r := instr.NewRegistry()
	eng.MetricsInto(r)
	var buf bytes.Buffer
	var snap map[string]float64
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if p := snap["core.timer_peak"]; p != 1 {
		t.Errorf("timer peak %g, want 1 for the whole schedule", p)
	}
}

// faultsPlatform builds hosts a, b and links l0, l1.
func faultsPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	pf := platform.New()
	for _, h := range []string{"a", "b"} {
		if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.AddRoute("a", "b", []*platform.Link{
		{Name: "l0", Bandwidth: 1e8, Latency: 1e-4},
		{Name: "l1", Bandwidth: 1e8, Latency: 1e-4},
	}); err != nil {
		t.Fatal(err)
	}
	return pf
}
