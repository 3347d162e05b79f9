package platform

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mkHost(name string) *Host { return &Host{Name: name, Power: 1e9} }

func mkLink(name string, bw, lat float64) *Link {
	return &Link{Name: name, Bandwidth: bw, Latency: lat}
}

func TestAddHostValidation(t *testing.T) {
	p := New()
	if err := p.AddHost(mkHost("a")); err != nil {
		t.Fatalf("AddHost: %v", err)
	}
	if err := p.AddHost(mkHost("a")); err == nil {
		t.Error("duplicate host accepted")
	}
	if err := p.AddHost(&Host{Name: "bad", Power: 0}); err == nil {
		t.Error("zero-power host accepted")
	}
	if err := p.AddHost(&Host{Name: "", Power: 1}); err == nil {
		t.Error("empty-name host accepted")
	}
	for _, power := range []float64{math.NaN(), -1, math.Inf(-1)} {
		if err := p.AddHost(&Host{Name: "odd", Power: power}); err == nil {
			t.Errorf("host with power %g accepted", power)
		}
	}
	if err := p.AddRouter("a"); err == nil {
		t.Error("router with host name accepted")
	}
	if err := p.AddRouter(""); err == nil {
		t.Error("empty-name router accepted") // Route.Head's "" means no node
	}
}

func TestAddLinkValidation(t *testing.T) {
	p := New()
	if err := p.AddLink(mkLink("l", 1e6, 0.001)); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if err := p.AddLink(mkLink("l", 1e6, 0.001)); err == nil {
		t.Error("duplicate link accepted")
	}
	if err := p.AddLink(mkLink("bad", 0, 0)); err == nil {
		t.Error("zero-bandwidth link accepted")
	}
	if err := p.AddLink(mkLink("bad2", 1, -1)); err == nil {
		t.Error("negative-latency link accepted")
	}
	// NaN compares false with everything: each field's test must be
	// written so that NaN fails it.
	if err := p.AddLink(mkLink("nanbw", math.NaN(), 0)); err == nil {
		t.Error("NaN-bandwidth link accepted")
	}
	if err := p.AddLink(mkLink("nanlat", 1, math.NaN())); err == nil {
		t.Error("NaN-latency link accepted")
	}
	p.AddHost(mkHost("a"))
	p.AddHost(mkHost("b"))
	if err := p.Connect("a", "b", mkLink("nanconn", 1, math.NaN())); err == nil || p.Link("nanconn") != nil {
		t.Errorf("Connect registered a NaN-latency link (err %v)", err)
	}
	if err := p.AddLink(&Link{Name: "unlimited", Bandwidth: math.Inf(1), Policy: Fatpipe}); err != nil {
		t.Errorf("infinite-bandwidth fatpipe rejected: %v", err)
	}
}

func TestExplicitRoute(t *testing.T) {
	p := New()
	p.AddHost(mkHost("a"))
	p.AddHost(mkHost("b"))
	l1 := mkLink("l1", 1e6, 0.001)
	l2 := mkLink("l2", 2e6, 0.002)
	if err := p.AddRoute("a", "b", []*Link{l1, l2}); err != nil {
		t.Fatalf("AddRoute: %v", err)
	}
	r, err := p.Route("a", "b")
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if len(r.Links) != 2 || r.Links[0] != l1 || r.Links[1] != l2 {
		t.Errorf("route = %v", r.Links)
	}
	if math.Abs(r.Latency()-0.003) > 1e-12 {
		t.Errorf("latency = %g, want 0.003", r.Latency())
	}
	if r.Bottleneck() != 1e6 {
		t.Errorf("bottleneck = %g, want 1e6", r.Bottleneck())
	}
	// Reverse route is implicit and reversed.
	rr, err := p.Route("b", "a")
	if err != nil {
		t.Fatalf("reverse Route: %v", err)
	}
	if len(rr.Links) != 2 || rr.Links[0] != l2 || rr.Links[1] != l1 {
		t.Errorf("reverse route = %v", rr.Links)
	}
}

// TestSelfRouteIsEmpty: a host's route to itself is empty, also after
// AddRoute declared one, which registers its links but is not saved.
func TestSelfRouteIsEmpty(t *testing.T) {
	p := New()
	p.AddHost(mkHost("a"))
	for _, declared := range []bool{false, true} {
		if declared {
			if err := p.AddRoute("a", "a", []*Link{mkLink("self", 1e6, 1)}); err != nil {
				t.Fatal(err)
			}
		}
		r, err := p.Route("a", "a")
		if err != nil {
			t.Fatalf("Route(a,a): %v", err)
		}
		if len(r.Links) != 0 {
			t.Errorf("self route (declared %v) has %d links, want 0", declared, len(r.Links))
		}
		if r.Latency() != 0 || !math.IsInf(r.Bottleneck(), 1) {
			t.Errorf("self route latency/bottleneck = %g/%g", r.Latency(), r.Bottleneck())
		}
	}
	if p.Link("self") == nil {
		t.Error("a self route's link was not registered")
	}
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(saved.String(), `"routes"`) {
		t.Errorf("Save wrote a self route:\n%s", saved.String())
	}
}

func TestRouteErrors(t *testing.T) {
	p := New()
	p.AddHost(mkHost("a"))
	p.AddHost(mkHost("b"))
	if _, err := p.Route("a", "zzz"); err == nil {
		t.Error("route to unknown host accepted")
	}
	if _, err := p.Route("zzz", "a"); err == nil {
		t.Error("route from unknown host accepted")
	}
	if _, err := p.Route("a", "b"); err == nil {
		t.Error("missing route did not error")
	}
}

func TestComputeRoutesLine(t *testing.T) {
	// a -- r1 -- b: two links, shortest path must chain them.
	p := New()
	p.AddHost(mkHost("a"))
	p.AddHost(mkHost("b"))
	p.AddRouter("r1")
	la := mkLink("la", 1e6, 0.001)
	lb := mkLink("lb", 1e6, 0.002)
	if err := p.Connect("a", "r1", la); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := p.Connect("r1", "b", lb); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	r, err := p.Route("a", "b")
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if len(r.Links) != 2 || r.Links[0] != la || r.Links[1] != lb {
		t.Errorf("route = %v, want [la lb]", names(r.Links))
	}
}

func TestComputeRoutesPrefersLowLatency(t *testing.T) {
	// Two paths a->b: direct slow-latency link vs two fast-latency hops.
	p := New()
	p.AddHost(mkHost("a"))
	p.AddHost(mkHost("b"))
	p.AddRouter("r")
	direct := mkLink("direct", 1e6, 0.010)
	h1 := mkLink("h1", 1e6, 0.001)
	h2 := mkLink("h2", 1e6, 0.001)
	p.Connect("a", "b", direct)
	p.Connect("a", "r", h1)
	p.Connect("r", "b", h2)
	if err := p.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	r, _ := p.Route("a", "b")
	if len(r.Links) != 2 {
		t.Errorf("route = %v, want the 2-hop low-latency path", names(r.Links))
	}
}

func TestComputeRoutesKeepsExplicit(t *testing.T) {
	p := New()
	p.AddHost(mkHost("a"))
	p.AddHost(mkHost("b"))
	forced := mkLink("forced", 1e3, 1.0)
	p.AddRoute("a", "b", []*Link{forced})
	fast := mkLink("fast", 1e9, 1e-6)
	p.Connect("a", "b", fast)
	if err := p.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	r, _ := p.Route("a", "b")
	if len(r.Links) != 1 || r.Links[0] != forced {
		t.Errorf("explicit route overwritten: %v", names(r.Links))
	}
}

// TestComputeRoutesAgain: a link connected after ComputeRoutes is not
// used until a second ComputeRoutes recomputes the routes the first one
// made; explicit routes still stay.
func TestComputeRoutesAgain(t *testing.T) {
	p := New()
	for _, h := range []string{"a", "b", "c"} {
		p.AddHost(mkHost(h))
	}
	p.AddRouter("r")
	p.Connect("a", "r", mkLink("ar", 1e6, 5))
	p.Connect("r", "b", mkLink("rb", 1e6, 5))
	p.Connect("b", "c", mkLink("bc", 1e6, 1))
	forced := mkLink("forced", 1e6, 20)
	p.AddRoute("a", "c", []*Link{forced})
	if err := p.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	if r, _ := p.Route("a", "b"); len(r.Links) != 2 || r.Latency() != 10 {
		t.Fatalf("first route a->b = %v, want [ar rb] at 10 s", names(r.Links))
	}
	direct := mkLink("direct", 1e6, 1)
	p.Connect("a", "b", direct)
	if r, _ := p.Route("a", "b"); len(r.Links) != 2 || r.Latency() != 10 {
		t.Fatalf("a->b before the recompute = %v, want [ar rb] at 10 s", names(r.Links))
	}
	if r, err := p.Route("b", "a"); err != nil || len(r.Links) != 2 || r.Head(0) != "r" || r.Head(1) != "a" {
		t.Fatalf("route b->a before the recompute = %v (%v), want two hops via r", names(r.Links), err)
	}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}} {
		r, err := p.Route(pair[0], pair[1])
		if err != nil || len(r.Links) != 1 || r.Links[0] != direct || r.Latency() != 1 || r.Head(0) != pair[1] {
			t.Errorf("route %s->%s = %v (%v), want [direct] at 1 s", pair[0], pair[1], names(r.Links), err)
		}
	}
	if r, _ := p.Route("c", "a"); len(r.Links) != 1 || r.Links[0] != forced {
		t.Errorf("explicit route c->a overwritten: %v", names(r.Links))
	}
}

func TestConnectUnknownNode(t *testing.T) {
	p := New()
	p.AddHost(mkHost("a"))
	if err := p.Connect("a", "ghost", mkLink("l", 1, 0)); err == nil {
		t.Error("Connect to unknown node accepted")
	}
}

// TestLinkNameReuse: Connect and AddRoute take a link either new or
// the very one already registered under its name. A second *Link under
// a taken name used to be accepted, so a route held both structs while
// surf, which models links by name, ran the first for both hops.
func TestLinkNameReuse(t *testing.T) {
	x := mkLink("x", 1e6, 1)
	cases := []struct {
		name    string
		declare func(p *Platform, l *Link) error
		second  *Link
		wantErr bool
	}{
		{"connect/same link", func(p *Platform, l *Link) error { return p.Connect("r", "b", l) }, x, false},
		{"connect/other link", func(p *Platform, l *Link) error { return p.Connect("r", "b", l) }, mkLink("x", 1e9, 0), true},
		{"connect/equal copy", func(p *Platform, l *Link) error { return p.Connect("r", "b", l) }, mkLink("x", 1e6, 1), true},
		{"route/same link", func(p *Platform, l *Link) error { return p.AddRoute("a", "b", []*Link{x, l}) }, x, false},
		{"route/other link", func(p *Platform, l *Link) error { return p.AddRoute("a", "b", []*Link{x, l}) }, mkLink("x", 1e9, 0), true},
	}
	for _, c := range cases {
		p := New()
		p.AddHost(mkHost("a"))
		p.AddHost(mkHost("b"))
		p.AddRouter("r")
		if err := p.Connect("a", "r", x); err != nil {
			t.Fatal(err)
		}
		err := c.declare(p, c.second)
		if c.wantErr != (err != nil) || (err != nil && !errors.Is(err, ErrDuplicate)) {
			t.Errorf("%s: err %v, want ErrDuplicate: %v", c.name, err, c.wantErr)
		}
		if p.Link("x") != x {
			t.Errorf("%s: link x replaced", c.name)
		}
	}
}

// TestSplitDuplexRefusesUnorientable: a split-duplex link gets one
// capacity per direction, so every hop over it must say which way it
// goes. Three declarations cannot, and are refused where they are made:
//   - a second edge: the link then joins more than two nodes, so a
//     direction named by its head node is ambiguous (surf failed the
//     routes that reached it through the earlier edge and merged the
//     others' directions into one);
//   - a self-edge: both directions head to the same node and took one
//     name (surf built two constraints under it, one out of FailLink's
//     reach);
//   - an explicit route, which names no nodes between its hosts (surf
//     ran both directions on one shared capacity).
func TestSplitDuplexRefusesUnorientable(t *testing.T) {
	type decl func(p *Platform, x *Link) error
	connect := func(a, b string) decl { return func(p *Platform, x *Link) error { return p.Connect(a, b, x) } }
	route := func(p *Platform, x *Link) error { return p.AddRoute("a", "b", []*Link{x}) }
	cases := []struct {
		name  string
		decls []decl // all but the last are accepted
		want  error  // the last one's error; nil: any error
	}{
		{"second edge", []decl{connect("a", "r"), connect("b", "r")}, ErrDuplicate},
		{"parallel edge", []decl{connect("a", "r"), connect("r", "a")}, ErrDuplicate},
		{"self-edge", []decl{connect("a", "a")}, ErrDuplicate},
		{"explicit route", []decl{route}, nil},
		{"explicit route over an edge", []decl{connect("a", "b"), route}, nil},
	}
	for _, c := range cases {
		p := New()
		p.AddHost(mkHost("a"))
		p.AddHost(mkHost("b"))
		p.AddRouter("r")
		x := &Link{Name: "x", Bandwidth: 1e6, Policy: SplitDuplex}
		last := len(c.decls) - 1
		for _, d := range c.decls[:last] {
			if err := d(p, x); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		err := c.decls[last](p, x)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: err %v, want an error (%v)", c.name, err, c.want)
		}
	}
}

// TestRouteDir: a route's Dir indexes the Ends of each split-duplex
// link it crosses by the node the hop heads to, and is 0 elsewhere.
func TestRouteDir(t *testing.T) {
	p := New()
	p.AddHost(mkHost("a"))
	p.AddHost(mkHost("b"))
	p.AddRouter("r")
	sd := &Link{Name: "sd", Bandwidth: 1, Policy: SplitDuplex}
	shared := mkLink("shared", 1, 0)
	if err := p.Connect("r", "a", sd); err != nil {
		t.Fatal(err)
	}
	if err := p.Connect("r", "b", shared); err != nil {
		t.Fatal(err)
	}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if a, b, ok := sd.Ends(); a != "r" || b != "a" || !ok {
		t.Errorf("sd.Ends() = %q, %q, %v; want r, a, true", a, b, ok)
	}
	if _, _, ok := shared.Ends(); ok {
		t.Error("a shared link reported Ends")
	}
	for _, c := range []struct {
		src, dst string
		want     []int
	}{{"a", "b", []int{0, 0}}, {"b", "a", []int{0, 1}}} {
		r, err := p.Route(c.src, c.dst)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r.Links {
			if got := r.Dir(i); got != c.want[i] {
				t.Errorf("%s->%s hop %d (%s): Dir %d, want %d", c.src, c.dst, i, r.Links[i].Name, got, c.want[i])
			}
		}
	}
}

func TestAccessorsSorted(t *testing.T) {
	p := New()
	p.AddHost(mkHost("z"))
	p.AddHost(mkHost("a"))
	p.AddRouter("r2")
	p.AddRouter("r1")
	p.AddLink(mkLink("lz", 1, 0))
	p.AddLink(mkLink("la", 1, 0))
	hosts := p.Hosts()
	if hosts[0].Name != "a" || hosts[1].Name != "z" {
		t.Errorf("Hosts not sorted: %v", hosts)
	}
	links := p.Links()
	if links[0].Name != "la" || links[1].Name != "lz" {
		t.Errorf("Links not sorted: %v", links)
	}
	routers := p.Routers()
	if routers[0] != "r1" || routers[1] != "r2" {
		t.Errorf("Routers not sorted: %v", routers)
	}
	if p.Host("a") == nil || p.Host("nope") != nil {
		t.Error("Host lookup wrong")
	}
	if p.Link("la") == nil || p.Link("nope") != nil {
		t.Error("Link lookup wrong")
	}
}

func TestHostProperties(t *testing.T) {
	h := &Host{Name: "h", Power: 1, Properties: map[string]string{"arch": "sparc"}}
	if h.Property("arch") != "sparc" {
		t.Error("Property lookup failed")
	}
	if h.Property("missing") != "" {
		t.Error("missing property not empty")
	}
	bare := &Host{Name: "b", Power: 1}
	if bare.Property("x") != "" {
		t.Error("nil map property not empty")
	}
}

func TestSharingPolicyString(t *testing.T) {
	if Shared.String() != "shared" || Fatpipe.String() != "fatpipe" {
		t.Error("policy strings wrong")
	}
}

func TestWaxmanDeterministic(t *testing.T) {
	p1, err := GenerateWaxman(DefaultWaxmanConfig(10, 42))
	if err != nil {
		t.Fatalf("GenerateWaxman: %v", err)
	}
	p2, err := GenerateWaxman(DefaultWaxmanConfig(10, 42))
	if err != nil {
		t.Fatalf("GenerateWaxman: %v", err)
	}
	l1, l2 := p1.Links(), p2.Links()
	if len(l1) != len(l2) {
		t.Fatalf("different link counts: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i].Name != l2[i].Name || l1[i].Bandwidth != l2[i].Bandwidth || l1[i].Latency != l2[i].Latency {
			t.Fatalf("link %d differs between same-seed runs", i)
		}
	}
}

func TestWaxmanConnected(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99, 12345} {
		p, err := GenerateWaxman(DefaultWaxmanConfig(12, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.Validate(true); err != nil {
			t.Errorf("seed %d: platform not fully routable: %v", seed, err)
		}
		if len(p.Hosts()) != 12 {
			t.Errorf("seed %d: %d hosts, want 12", seed, len(p.Hosts()))
		}
	}
}

func TestWaxmanValidation(t *testing.T) {
	if _, err := GenerateWaxman(DefaultWaxmanConfig(1, 1)); err == nil {
		t.Error("1-node topology accepted")
	}
	cfg := DefaultWaxmanConfig(4, 1)
	cfg.Alpha = 0
	if _, err := GenerateWaxman(cfg); err == nil {
		t.Error("zero alpha accepted")
	}
	cfg = DefaultWaxmanConfig(4, 1)
	cfg.MaxBandwidth = cfg.MinBandwidth / 2
	if _, err := GenerateWaxman(cfg); err == nil {
		t.Error("inverted bandwidth range accepted")
	}
	cfg = DefaultWaxmanConfig(4, 1)
	cfg.MinLatency = -1
	if _, err := GenerateWaxman(cfg); err == nil {
		t.Error("negative latency accepted")
	}
}

// Property: Waxman platforms of any size/seed are connected and within
// the configured ranges.
func TestWaxmanRangesProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%20)
		cfg := DefaultWaxmanConfig(n, seed)
		p, err := GenerateWaxman(cfg)
		if err != nil {
			return false
		}
		for _, l := range p.Links() {
			if strings.HasPrefix(l.Name, "lan") {
				continue // host attachment links use a wider range
			}
			if l.Bandwidth < cfg.MinBandwidth-1e-9 || l.Bandwidth > cfg.MaxBandwidth+1e-9 {
				return false
			}
			if l.Latency < cfg.MinLatency-1e-12 || l.Latency > cfg.MaxLatency+1e-12 {
				return false
			}
		}
		return p.Validate(true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	src := `{
	  "hosts": [
	    {"name": "h1", "power": 1e9, "properties": {"arch": "x86"}},
	    {"name": "h2", "power": 2e9,
	     "availability": "PERIODICITY 10\n0 1\n5 0.5"}
	  ],
	  "routers": ["r1"],
	  "links": [
	    {"name": "l1", "bandwidth": 1.25e7, "latency": 0.0001},
	    {"name": "l2", "bandwidth": 1.25e6, "latency": 0.01, "policy": "fatpipe"}
	  ],
	  "edges": [
	    {"a": "h1", "b": "r1", "link": "l1"},
	    {"a": "r1", "b": "h2", "link": "l2"}
	  ]
	}`
	p, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if p.Host("h1").Property("arch") != "x86" {
		t.Error("host property lost")
	}
	if p.Host("h2").Availability == nil {
		t.Error("availability trace lost")
	}
	if p.Link("l2").Policy != Fatpipe {
		t.Error("fatpipe policy lost")
	}
	r, err := p.Route("h1", "h2")
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if len(r.Links) != 2 {
		t.Errorf("computed route has %d links, want 2", len(r.Links))
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if len(p2.Hosts()) != 2 || len(p2.Links()) != 2 {
		t.Errorf("round trip lost elements: %d hosts %d links", len(p2.Hosts()), len(p2.Links()))
	}
	if _, err := p2.Route("h1", "h2"); err != nil {
		t.Errorf("round-tripped route: %v", err)
	}
}

func TestJSONExplicitRoutes(t *testing.T) {
	src := `{
	  "hosts": [{"name": "a", "power": 1}, {"name": "b", "power": 1}],
	  "links": [{"name": "l", "bandwidth": 1000, "latency": 0.5}],
	  "routes": [{"src": "a", "dst": "b", "links": ["l"]}]
	}`
	p, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	r, err := p.Route("a", "b")
	if err != nil || len(r.Links) != 1 {
		t.Fatalf("route: %v %v", r, err)
	}
}

// TestJSONExplicitRoutesRoundTrip: Save writes every explicit route
// once, so a reload routes each host pair over the same links and
// saves the same bytes.
func TestJSONExplicitRoutesRoundTrip(t *testing.T) {
	src := `{
	  "hosts": [{"name": "a", "power": 1}, {"name": "b", "power": 1}, {"name": "c", "power": 1}],
	  "links": [{"name": "l", "bandwidth": 1000, "latency": 0.5}, {"name": "m", "bandwidth": 10, "latency": 1}],
	  "routes": [{"src": "c", "dst": "a", "links": ["l", "m"]}, {"src": "a", "dst": "b", "links": ["l"]}]
	}`
	p, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var saved, again bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatalf("Save: %v", err)
	}
	p2, err := Load(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatalf("reload: %v\n%s", err, saved.Bytes())
	}
	want := map[[2]string]string{
		{"a", "b"}: "l", {"b", "a"}: "l",
		{"c", "a"}: "l m", {"a", "c"}: "m l",
	}
	for pair, links := range want {
		r, err := p2.Route(pair[0], pair[1])
		if err != nil {
			t.Errorf("reloaded route %s->%s: %v", pair[0], pair[1], err)
			continue
		}
		if got := strings.Join(names(r.Links), " "); got != links {
			t.Errorf("reloaded route %s->%s = [%s], want [%s]", pair[0], pair[1], got, links)
		}
	}
	if _, err := p2.Route("b", "c"); !errors.Is(err, ErrNoRoute) {
		t.Errorf("reloaded route b->c: err = %v, want ErrNoRoute", err)
	}
	if err := p2.Save(&again); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	if !bytes.Equal(saved.Bytes(), again.Bytes()) {
		t.Errorf("Save is not stable across a reload:\n%s\nthen\n%s", saved.Bytes(), again.Bytes())
	}
}

func TestJSONErrors(t *testing.T) {
	bad := []string{
		`{`,
		`{"unknown_field": 1}`,
		`{"hosts": [{"name": "a", "power": 0}]}`,
		// JSON has no NaN: the decoder refuses the token, so no capacity
		// field can carry one in, whatever AddHost/AddLink would say.
		`{"hosts": [{"name": "a", "power": NaN}]}`,
		`{"hosts": [{"name": "a", "power": 1}], "links": [{"name": "l", "bandwidth": NaN, "latency": 0}]}`,
		`{"hosts": [{"name": "a", "power": 1}], "links": [{"name": "l", "bandwidth": 1, "latency": NaN}]}`,
		`{"hosts": [{"name": "a", "power": -1}]}`,
		`{"hosts": [{"name": "a", "power": 1}], "links": [{"name": "l", "bandwidth": -1, "latency": 0}]}`,
		`{"hosts": [{"name": "a", "power": 1}], "links": [{"name": "l", "bandwidth": 1, "latency": -1}]}`,
		`{"hosts": [{"name": "a", "power": 1, "availability": "garbage here"}]}`,
		// Trace strings do carry NaN in: the trace parser must refuse it.
		`{"hosts": [{"name": "a", "power": 1, "availability": "0.5 NaN"}]}`,
		`{"hosts": [{"name": "a", "power": 1, "state": "NaN 0"}]}`,
		`{"hosts": [{"name": "a", "power": 1, "availability": "0.5 0\nNaN 1"}]}`,
		`{"hosts": [{"name": "a", "power": 1, "availability": "PERIODICITY NaN\n0 1"}]}`,
		`{"hosts": [{"name": "a", "power": 1}], "links": [{"name": "l", "bandwidth": 1, "latency": 0, "bandwidth_trace": "0 NaN"}]}`,
		`{"hosts": [{"name": "a", "power": 1}], "links": [{"name": "l", "bandwidth": 1, "latency": 0, "state": "NaN 0"}]}`,
		`{"hosts": [{"name": "a", "power": 1}], "links": [{"name": "l", "bandwidth": 1, "latency": 0, "policy": "warp"}]}`,
		`{"hosts": [{"name": "a", "power": 1}], "edges": [{"a": "a", "b": "a", "link": "ghost"}]}`,
		`{"hosts": [{"name": "a", "power": 1}], "routes": [{"src": "a", "dst": "a", "links": ["ghost"]}]}`,
	}
	for i, src := range bad {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: bad JSON accepted", i)
		}
	}
}

func TestValidateCatchesForeignLink(t *testing.T) {
	p := New()
	p.AddHost(mkHost("a"))
	p.AddHost(mkHost("b"))
	foreign := mkLink("foreign", 1, 0)
	p.AddRoute("a", "b", []*Link{foreign})
	// Replace the registered link with a different object of same name.
	p.links["foreign"] = mkLink("foreign", 2, 0)
	if err := p.Validate(false); err == nil {
		t.Error("Validate missed foreign link")
	}
}

func names(links []*Link) []string {
	out := make([]string, len(links))
	for i, l := range links {
		out[i] = l.Name
	}
	return out
}
