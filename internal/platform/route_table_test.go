package platform

import (
	"errors"
	"strconv"
	"testing"
)

// TestRouteCache pins the per-pair record contract: repeated lookups
// share one *Route, and a rewrite of the pair hands out a new one.
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
		t.Error("repeated Route lookups did not share the pair's *Route")
	}
	if got := r1.Latency(); got != 0.25 {
		t.Errorf("Latency() = %g, want 0.25", got)
	}

	// Self-routes are shared too (empty link list).
	s1, _ := p.Route("a", "a")
	s2, _ := p.Route("a", "a")
	if s1 != s2 || len(s1.Links) != 0 {
		t.Error("self-route not shared as an empty route")
	}

	// Redeclaring the pair replaces its record: the next lookup sees the
	// new route, not the old one.
	l2 := &Link{Name: "l2", Bandwidth: 1e6, Latency: 0.5}
	if err := p.AddRoute("a", "b", []*Link{l2, l}); err != nil {
		t.Fatal(err)
	}
	r3, err := p.Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("Route returned the replaced route after AddRoute")
	}
	if len(r3.Links) != 2 || r3.Latency() != 0.75 {
		t.Errorf("post-mutation route has %d links latency %g, want 2 links latency 0.75", len(r3.Links), r3.Latency())
	}
}

// TestRouteCacheMissStaysUncached checks that a failed lookup records
// nothing: declaring the missing route afterwards makes it resolvable.
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
// table is consulted before the endpoints are validated, so every
// outcome is asked for cold, again warm (after the first self lookup
// recorded its route), and after a topology mutation bumped the
// generation. A miss reports the unknown source before the unknown
// destination, and ErrNoRoute only for two known hosts.
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
	if err := p.AddRouter("r"); err != nil { // a mutation that rewrites no pair
		t.Fatal(err)
	}
	ask("after a generation bump")
	ask("warm again")
}

// TestFirstLookupAllocatesNothing: a route is built where it is
// declared, so even the first Route of each pair, either way, after
// AddRoute or ComputeRoutes allocates nothing. AllocsPerRun's warm-up
// call asks every pair of one platform; the measured call asks every
// pair of a second, identical one, which nothing has looked up yet.
func TestFirstLookupAllocatesNothing(t *testing.T) {
	const n = 40
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = "h" + strconv.Itoa(i)
	}
	build := func(computed bool) *Platform {
		p := New()
		for _, h := range hosts {
			if err := p.AddHost(mkHost(h)); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.AddRouter("r"); err != nil {
			t.Fatal(err)
		}
		for i, h := range hosts {
			var err error
			if computed {
				err = p.Connect(h, "r", mkLink("up"+strconv.Itoa(i), 1e6, 1))
			} else if i%2 == 0 {
				err = p.AddRoute(h, hosts[i+1], []*Link{mkLink("x"+strconv.Itoa(i), 1e6, 1)})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if computed {
			if err := p.ComputeRoutes(); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	for _, computed := range []bool{false, true} {
		pfs := []*Platform{build(computed), build(computed)}
		allocs := testing.AllocsPerRun(1, func() {
			p := pfs[0]
			pfs = pfs[1:]
			for i := 0; i < n; i += 2 {
				src, dst := hosts[i], hosts[i+1]
				if _, err := p.Route(src, dst); err != nil {
					t.Fatal(err)
				}
				if r, err := p.Route(dst, src); err != nil || (r.Head(0) == "") == computed {
					t.Fatal(dst, src, err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("first lookups of %d pairs (computed %v): %v allocs, want 0", n/2, computed, allocs)
		}
	}
}

// TestComputeRoutesAllocsGrowWithNodes: a recompute on a Waxman graph of
// 24 and of 48 hosts allocates in proportion to the nodes (the
// Floyd–Warshall rows), not to the host pairs, whose links and heads are
// windows of one array each. Doubling the hosts doubles the nodes and
// quadruples the pairs.
func TestComputeRoutesAllocsGrowWithNodes(t *testing.T) {
	allocs := func(hosts int) float64 {
		p, err := GenerateWaxman(DefaultWaxmanConfig(hosts, 7))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if err := p.ComputeRoutes(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(24), allocs(48)
	t.Logf("ComputeRoutes allocations: %v at 24 hosts, %v at 48", small, large)
	if large > 2.5*small {
		t.Errorf("ComputeRoutes allocations grew %v -> %v (x%.2f) from 24 to 48 hosts, want at most x2.5",
			small, large, large/small)
	}
}
