// JSON platform description format, the reproduction's equivalent of
// SimGrid's XML platform files. Example:
//
//	{
//	  "hosts":   [{"name": "h1", "power": 1e9,
//	               "availability": "PERIODICITY 24\n0 1\n8 0.5",
//	               "properties": {"arch": "x86"}}],
//	  "routers": ["r1"],
//	  "links":   [{"name": "l1", "bandwidth": 1.25e7, "latency": 0.0001,
//	               "policy": "fatpipe"}],
//	  "edges":   [{"a": "h1", "b": "r1", "link": "l1"}],
//	  "routes":  [{"src": "h1", "dst": "h2", "links": ["l1", "l2"]}]
//	}
//
// Traces are embedded in the trace text format (see package trace).

package platform

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/trace"
)

type jsonPlatform struct {
	Hosts   []jsonHost  `json:"hosts"`
	Routers []string    `json:"routers,omitempty"`
	Links   []jsonLink  `json:"links,omitempty"`
	Edges   []jsonEdge  `json:"edges,omitempty"`
	Routes  []jsonRoute `json:"routes,omitempty"`
}

type jsonHost struct {
	Name         string            `json:"name"`
	Power        float64           `json:"power"`
	Availability string            `json:"availability,omitempty"`
	State        string            `json:"state,omitempty"`
	Properties   map[string]string `json:"properties,omitempty"`
}

type jsonLink struct {
	Name      string  `json:"name"`
	Bandwidth float64 `json:"bandwidth"`
	Latency   float64 `json:"latency"`
	Policy    string  `json:"policy,omitempty"`
	BwTrace   string  `json:"bandwidth_trace,omitempty"`
	State     string  `json:"state,omitempty"`
}

type jsonEdge struct {
	A    string `json:"a"`
	B    string `json:"b"`
	Link string `json:"link"`
}

type jsonRoute struct {
	Src   string   `json:"src"`
	Dst   string   `json:"dst"`
	Links []string `json:"links"`
}

// Load reads a JSON platform description. Routes are completed with
// ComputeRoutes when an edge list is present.
func Load(r io.Reader) (*Platform, error) {
	var jp jsonPlatform
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jp); err != nil {
		return nil, fmt.Errorf("platform: decoding JSON: %w", err)
	}
	p := New()
	for _, jh := range jp.Hosts {
		h := &Host{Name: jh.Name, Power: jh.Power, Properties: jh.Properties}
		if jh.Availability != "" {
			tr, err := trace.ParseString(jh.Name+".availability", jh.Availability)
			if err != nil {
				return nil, err
			}
			h.Availability = tr
		}
		if jh.State != "" {
			tr, err := trace.ParseString(jh.Name+".state", jh.State)
			if err != nil {
				return nil, err
			}
			h.StateTrace = tr
		}
		if err := p.AddHost(h); err != nil {
			return nil, err
		}
	}
	for _, rt := range jp.Routers {
		if err := p.AddRouter(rt); err != nil {
			return nil, err
		}
	}
	for _, jl := range jp.Links {
		l := &Link{Name: jl.Name, Bandwidth: jl.Bandwidth, Latency: jl.Latency}
		switch jl.Policy {
		case "", "shared":
			l.Policy = Shared
		case "fatpipe":
			l.Policy = Fatpipe
		case "splitduplex":
			l.Policy = SplitDuplex
		default:
			return nil, fmt.Errorf("platform: link %q: unknown policy %q", jl.Name, jl.Policy)
		}
		if jl.BwTrace != "" {
			tr, err := trace.ParseString(jl.Name+".bandwidth", jl.BwTrace)
			if err != nil {
				return nil, err
			}
			l.BandwidthTrace = tr
		}
		if jl.State != "" {
			tr, err := trace.ParseString(jl.Name+".state", jl.State)
			if err != nil {
				return nil, err
			}
			l.StateTrace = tr
		}
		if err := p.AddLink(l); err != nil {
			return nil, err
		}
	}
	for _, je := range jp.Edges {
		l := p.Link(je.Link)
		if l == nil {
			return nil, fmt.Errorf("%w: link %q in edge %v", ErrUnknown, je.Link, je)
		}
		if err := p.Connect(je.A, je.B, l); err != nil {
			return nil, err
		}
	}
	for _, jr := range jp.Routes {
		links := make([]*Link, len(jr.Links))
		for i, name := range jr.Links {
			l := p.Link(name)
			if l == nil {
				return nil, fmt.Errorf("%w: link %q in route %s->%s", ErrUnknown, name, jr.Src, jr.Dst)
			}
			links[i] = l
		}
		if err := p.AddRoute(jr.Src, jr.Dst, links); err != nil {
			return nil, err
		}
	}
	if len(jp.Edges) > 0 {
		if err := p.ComputeRoutes(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// LoadFile reads a JSON platform description from a file.
func LoadFile(path string) (*Platform, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Save serializes the platform back to the JSON format. Traces are not
// round-tripped (they keep running in-memory); the structural topology
// and explicit routes are.
func (p *Platform) Save(w io.Writer) error {
	var jp jsonPlatform
	for _, h := range p.Hosts() {
		jp.Hosts = append(jp.Hosts, jsonHost{Name: h.Name, Power: h.Power, Properties: h.Properties})
	}
	jp.Routers = p.Routers()
	for _, l := range p.Links() {
		jl := jsonLink{Name: l.Name, Bandwidth: l.Bandwidth, Latency: l.Latency}
		switch l.Policy {
		case Fatpipe:
			jl.Policy = "fatpipe"
		case SplitDuplex:
			jl.Policy = "splitduplex"
		}
		jp.Links = append(jp.Links, jl)
	}
	for _, e := range p.edges {
		jp.Edges = append(jp.Edges, jsonEdge{A: e.a, B: e.b, Link: e.link.Name})
	}
	// AddRoute stores both directions; one of them (src < dst) reloads
	// both. A host's route to itself is always empty, whatever it names.
	for key, r := range p.routes {
		if key[0] >= key[1] || !p.explicit(key) {
			continue
		}
		names := make([]string, len(r.Links))
		for i, l := range r.Links {
			names[i] = l.Name
		}
		jp.Routes = append(jp.Routes, jsonRoute{Src: key[0], Dst: key[1], Links: names})
	}
	slices.SortFunc(jp.Routes, func(a, b jsonRoute) int {
		if c := strings.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return strings.Compare(a.Dst, b.Dst)
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&jp)
}
