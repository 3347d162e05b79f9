package faults

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
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
	}
	for _, c := range cases {
		if _, err := Compile(1, c.p); err == nil {
			t.Errorf("%s: Compile accepted invalid params", c.name)
		}
	}
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

// TestLifetimeMeans: sampled up-times track MTBF for both
// distributions (law of large numbers, loose tolerance).
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
		var sum float64
		var n int
		prevUp := 0.0
		for _, ev := range s.Events {
			if !ev.Up {
				sum += ev.At - prevUp
				n++
			} else {
				prevUp = ev.At
			}
		}
		if n < 1000 {
			t.Fatalf("%s: only %d failures sampled", tc.name, n)
		}
		mean := sum / float64(n)
		if math.Abs(mean-10) > 1.0 {
			t.Errorf("%s: mean up-time %.3f, want ~10", tc.name, mean)
		}
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
