package platform_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/surf"
)

// FuzzLoad feeds Load arbitrary bytes: every input is rejected with an
// error or yields a platform on which a route lookup between any two
// hosts returns a route or an error, surf resolves every route the
// platform hands out (a split-duplex hop it cannot orient would fail
// here), and whose Save output loads back and saves to the same bytes.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(`{"hosts": [{"name": "a", "power": 1}, {"name": "b", "power": 1}],
	  "routers": ["r"], "links": [{"name": "l", "bandwidth": 1000, "latency": 0.5, "policy": "fatpipe"}],
	  "edges": [{"a": "a", "b": "r", "link": "l"}, {"a": "r", "b": "b", "link": "l"}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := platform.Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		m := surf.New(core.New(), p, surf.DefaultConfig())
		for _, a := range p.Hosts() {
			for _, b := range p.Hosts() {
				p.HopRoute(a.Name, b.Name)
				if _, err := p.Route(a.Name, b.Name); err != nil {
					continue
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
	})
}
