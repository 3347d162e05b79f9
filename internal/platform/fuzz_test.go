package platform_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/surf"
)

// FuzzLoad feeds Load arbitrary bytes: every input is rejected with an
// error or yields a platform on which a route lookup between any two
// hosts returns a route or an error, a pair's hop route crosses its
// route's links in order, surf resolves every route the platform hands
// out (a split-duplex hop it cannot orient would fail here), and whose
// Save output loads back, routes every host pair over the same links
// and saves to the same bytes.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(`{"hosts": [{"name": "a", "power": 1}, {"name": "b", "power": 1}],
	  "routers": ["r"], "links": [{"name": "l", "bandwidth": 1000, "latency": 0.5, "policy": "fatpipe"}],
	  "edges": [{"a": "a", "b": "r", "link": "l"}, {"a": "r", "b": "b", "link": "l"}]}`))
	f.Add([]byte(`{"hosts": [{"name": "a", "power": 1}, {"name": "b", "power": 1}, {"name": "c", "power": 1}],
	  "links": [{"name": "l", "bandwidth": 1000, "latency": 0.5}, {"name": "m", "bandwidth": 10, "latency": 1}],
	  "edges": [{"a": "b", "b": "c", "link": "m"}],
	  "routes": [{"src": "c", "dst": "a", "links": ["l", "m"]}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := platform.Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		m := surf.New(core.New(), p, surf.DefaultConfig())
		for _, a := range p.Hosts() {
			for _, b := range p.Hosts() {
				hops, herr := p.HopRoute(a.Name, b.Name)
				r, err := p.Route(a.Name, b.Name)
				if err != nil {
					continue
				}
				if herr == nil && !slices.EqualFunc(hops, r.Links, func(h platform.Hop, l *platform.Link) bool { return h.Link == l }) {
					t.Fatalf("%s -> %s: hops %v cross other links than the route's %s", a.Name, b.Name, hops, routeNames(p, a.Name, b.Name))
				}
				if _, err := m.RouteHandle(a.Name, b.Name); err != nil {
					t.Fatalf("surf cannot resolve the route %s -> %s: %v", a.Name, b.Name, err)
				}
			}
		}
		var saved, again bytes.Buffer
		if err := p.Save(&saved); err != nil {
			t.Fatalf("Save: %v", err)
		}
		p2, err := platform.Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("reloading the saved platform: %v\n%s", err, saved.Bytes())
		}
		if err := p2.Save(&again); err != nil {
			t.Fatalf("second Save: %v", err)
		}
		if !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatalf("Save is not stable across a reload:\n%s\nthen\n%s", saved.Bytes(), again.Bytes())
		}
		for _, a := range p.Hosts() {
			for _, b := range p.Hosts() {
				if was, now := routeNames(p, a.Name, b.Name), routeNames(p2, a.Name, b.Name); was != now {
					t.Fatalf("route %s -> %s was %s, after Save and Load %s\n%s", a.Name, b.Name, was, now, saved.Bytes())
				}
			}
		}
	})
}

// routeNames is the route src -> dst as its link names, or the error
// that refused it.
func routeNames(p *platform.Platform, src, dst string) string {
	r, err := p.Route(src, dst)
	if err != nil {
		return err.Error()
	}
	var names []string
	for _, l := range r.Links {
		names = append(names, l.Name)
	}
	return fmt.Sprintf("%q", names)
}
