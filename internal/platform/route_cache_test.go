package platform

import (
	"errors"
	"testing"
)

// TestRouteCache pins the per-pair memoization contract: repeated
// lookups share one *Route, and any topology mutation invalidates the
// cache through the generation counter.
func TestRouteCache(t *testing.T) {
	p := New()
	if err := p.AddHost(&Host{Name: "a", Power: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddHost(&Host{Name: "b", Power: 1}); err != nil {
		t.Fatal(err)
	}
	l := &Link{Name: "l", Bandwidth: 1e6, Latency: 0.25}
	if err := p.AddRoute("a", "b", []*Link{l}); err != nil {
		t.Fatal(err)
	}

	r1, err := p.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("repeated Route lookups did not share the cached *Route")
	}
	if got := r1.Latency(); got != 0.25 {
		t.Errorf("Latency() = %g, want 0.25", got)
	}
	// Memoized latency: a second call must agree (same memo).
	if got := r1.Latency(); got != 0.25 {
		t.Errorf("memoized Latency() = %g, want 0.25", got)
	}

	// Self-routes are cached too (empty link list).
	s1, _ := p.Route("a", "a")
	s2, _ := p.Route("a", "a")
	if s1 != s2 || len(s1.Links) != 0 {
		t.Error("self-route not cached as an empty shared route")
	}

	// A topology mutation bumps the generation: the next lookup sees the
	// new route, not the stale cached one.
	l2 := &Link{Name: "l2", Bandwidth: 1e6, Latency: 0.5}
	if err := p.AddRoute("a", "b", []*Link{l2, l}); err != nil {
		t.Fatal(err)
	}
	r3, err := p.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("Route returned the stale cached route after AddRoute")
	}
	if len(r3.Links) != 2 || r3.Latency() != 0.75 {
		t.Errorf("post-mutation route has %d links latency %g, want 2 links latency 0.75", len(r3.Links), r3.Latency())
	}
}

// TestRouteCacheMissStaysUncached checks that a failed lookup is not
// cached: declaring the missing route afterwards makes it resolvable.
func TestRouteCacheMissStaysUncached(t *testing.T) {
	p := New()
	for _, h := range []string{"x", "y"} {
		if err := p.AddHost(&Host{Name: h, Power: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Route("x", "y"); err == nil {
		t.Fatal("expected ErrNoRoute before any route is declared")
	}
	if err := p.AddRoute("x", "y", []*Link{{Name: "xy", Bandwidth: 1, Latency: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Route("x", "y"); err != nil {
		t.Fatalf("Route after AddRoute: %v", err)
	}
}

// TestRouteLookupOutcomes pins what Route answers, hit or miss: the
// cache is consulted before the endpoints are validated, so every
// outcome is asked for cold, again warm (after hits filled the cache),
// and after a topology mutation bumped the generation. A miss reports
// the unknown source before the unknown destination, and ErrNoRoute
// only for two known hosts.
func TestRouteLookupOutcomes(t *testing.T) {
	p := New()
	for _, h := range []string{"a", "b", "c"} {
		if err := p.AddHost(&Host{Name: h, Power: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddRoute("a", "b", []*Link{{Name: "ab", Bandwidth: 1, Latency: 0}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src, dst string
		err      error  // nil: a route is found
		text     string // the full error text
	}{
		{"a", "b", nil, ""},
		{"b", "a", nil, ""},
		{"c", "c", nil, ""},
		{"a", "c", ErrNoRoute, `platform: no route between hosts: "a" -> "c"`},
		{"a", "ghost", ErrUnknown, `platform: unknown element: host "ghost"`},
		{"ghost", "a", ErrUnknown, `platform: unknown element: host "ghost"`},
		{"ghost", "phantom", ErrUnknown, `platform: unknown element: host "ghost"`},
		{"phantom", "phantom", ErrUnknown, `platform: unknown element: host "phantom"`},
	}
	ask := func(phase string) {
		t.Helper()
		for _, c := range cases {
			r, err := p.Route(c.src, c.dst)
			switch {
			case c.err == nil && (err != nil || r == nil || r.Src != c.src || r.Dst != c.dst):
				t.Errorf("%s: Route(%q, %q) = %+v, %v; want the route", phase, c.src, c.dst, r, err)
			case c.err != nil && (r != nil || !errors.Is(err, c.err) || err.Error() != c.text):
				t.Errorf("%s: Route(%q, %q) = %+v, %v; want %q", phase, c.src, c.dst, r, err, c.text)
			}
		}
	}
	ask("cold")
	ask("warm")
	if err := p.AddRouter("r"); err != nil { // any mutation: the cache is dropped whole
		t.Fatal(err)
	}
	ask("after a generation bump")
	ask("warm again")
}
