// Package platform describes the simulated hardware: hosts (CPUs),
// network links, and multi-hop routes between hosts. It supports
// programmatic construction, a JSON file format, and a BRITE-like
// Waxman random topology generator (the paper imports topologies "from
// topology generators such as BRITE").
//
// A platform is a graph whose vertices are nodes (hosts or routers) and
// whose edges are links. Routes between host pairs are either declared
// explicitly or computed by ComputeRoutes, which runs Floyd–Warshall on
// link latency so traffic follows lowest-latency paths, mirroring the
// static routing tables of SimGrid platform files.
//
// Key invariant: route lookups are memoized behind a topology
// generation counter (Generation) — every mutation bumps it, so the
// shared *Route values handed out by Route, and any state derived from
// them by upper layers (surf's resolved resource lists), are valid
// exactly as long as the generation matches and must be treated
// read-only.
package platform

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// SharingPolicy selects how concurrent flows share a link.
type SharingPolicy int

const (
	// Shared links divide their bandwidth among all crossing flows
	// regardless of direction (MaxMin), SimGrid's default.
	Shared SharingPolicy = iota
	// Fatpipe links let every flow enjoy the full bandwidth
	// (modelling over-provisioned backbones).
	Fatpipe
	// SplitDuplex links have independent capacity per direction, like
	// NS2/GTNets duplex links; flows only share with same-direction
	// traffic. Requires hop-level routes (Connect + ComputeRoutes).
	SplitDuplex
)

func (s SharingPolicy) String() string {
	switch s {
	case Fatpipe:
		return "fatpipe"
	case SplitDuplex:
		return "splitduplex"
	default:
		return "shared"
	}
}

// Host is a computing resource: a machine running simulated processes.
type Host struct {
	Name  string
	Power float64 // flop/s delivered to a single runnable task

	// Availability scales Power over time (external load); State turns
	// the host off/on (transient failures). Value semantics follow
	// package trace: missing traces mean always fully available.
	Availability *trace.Trace
	StateTrace   *trace.Trace

	// Properties carries free-form metadata (OS, arch...), used by GRAS
	// to pick wire conversion behaviour.
	Properties map[string]string
}

// Property returns a host property or "" when absent.
func (h *Host) Property(key string) string {
	if h.Properties == nil {
		return ""
	}
	return h.Properties[key]
}

// Link is a network resource crossed by flows.
type Link struct {
	Name      string
	Bandwidth float64 // bytes/s
	Latency   float64 // seconds
	Policy    SharingPolicy

	BandwidthTrace *trace.Trace
	StateTrace     *trace.Trace
}

// Route is an ordered list of links joining two hosts. Routes returned
// by Platform.Route are cached and shared between callers: treat them
// as immutable.
type Route struct {
	Src, Dst string
	Links    []*Link

	lat      float64 // memoized Latency (routes are immutable once built)
	latKnown bool
}

// Latency returns the sum of link latencies along the route, memoized
// on first call (comm-heavy workloads query it several times per
// transfer on the same cached route).
func (r *Route) Latency() float64 {
	if !r.latKnown {
		sum := 0.0
		for _, l := range r.Links {
			sum += l.Latency
		}
		r.lat = sum
		r.latKnown = true
	}
	return r.lat
}

// Bottleneck returns the smallest link bandwidth along the route.
func (r *Route) Bottleneck() float64 {
	b := math.Inf(1)
	for _, l := range r.Links {
		if l.Bandwidth < b {
			b = l.Bandwidth
		}
	}
	return b
}

// edge is an undirected graph edge used for route computation.
type edge struct {
	a, b string // node names (hosts or routers)
	link *Link
}

// Hop is one directed step of a route: traversing Link from node A to
// node B. Hop-level routes are available for platforms built from a
// Connect graph (ComputeRoutes); packet-level simulators need them to
// share queues between flows crossing a link in the same direction.
type Hop struct {
	A, B string
	Link *Link
}

// Edge is an undirected connection in the platform graph.
type Edge struct {
	A, B string
	Link *Link
}

// Platform is a set of hosts, routers, links and routes.
// The zero value is unusable; call New.
type Platform struct {
	hosts   map[string]*Host
	routers map[string]bool
	links   map[string]*Link
	edges   []edge
	routes  map[[2]string][]*Link
	hops    map[[2]string][]Hop

	// routeCache memoizes the *Route values handed out by Route: route
	// and mailbox map lookups are ~10% of a million-activity profile,
	// and every comm re-allocated its Route before the cache. The cache
	// is valid for generation cacheGen only; any topology mutation bumps
	// gen, so the next lookup rebuilds lazily.
	routeCache map[[2]string]*Route
	cacheGen   uint64
	gen        uint64
}

// New returns an empty platform.
func New() *Platform {
	return &Platform{
		hosts:   make(map[string]*Host),
		routers: make(map[string]bool),
		links:   make(map[string]*Link),
		routes:  make(map[[2]string][]*Link),
		hops:    make(map[[2]string][]Hop),
	}
}

// Errors returned by platform construction and lookup.
var (
	ErrDuplicate = errors.New("platform: duplicate element")
	ErrUnknown   = errors.New("platform: unknown element")
	ErrNoRoute   = errors.New("platform: no route between hosts")
)

// AddHost registers a host. Power must be positive (NaN is not).
func (p *Platform) AddHost(h *Host) error {
	if h.Name == "" {
		return fmt.Errorf("%w: host with empty name", ErrUnknown)
	}
	if !(h.Power > 0) {
		return fmt.Errorf("platform: host %q has non-positive power %g", h.Name, h.Power)
	}
	if _, dup := p.hosts[h.Name]; dup {
		return fmt.Errorf("%w: host %q", ErrDuplicate, h.Name)
	}
	if p.routers[h.Name] {
		return fmt.Errorf("%w: node %q already a router", ErrDuplicate, h.Name)
	}
	p.hosts[h.Name] = h
	p.gen++
	return nil
}

// AddRouter registers a routing-only node (no compute capacity).
func (p *Platform) AddRouter(name string) error {
	if _, dup := p.hosts[name]; dup {
		return fmt.Errorf("%w: node %q already a host", ErrDuplicate, name)
	}
	if p.routers[name] {
		return fmt.Errorf("%w: router %q", ErrDuplicate, name)
	}
	p.routers[name] = true
	p.gen++
	return nil
}

// AddLink registers a link. Bandwidth must be positive, latency
// non-negative; NaN is neither, and the comparisons are written so that
// it fails them. An infinite bandwidth is legal (an unlimited fatpipe).
func (p *Platform) AddLink(l *Link) error {
	if l.Name == "" {
		return fmt.Errorf("%w: link with empty name", ErrUnknown)
	}
	if !(l.Bandwidth > 0) {
		return fmt.Errorf("platform: link %q has non-positive bandwidth %g", l.Name, l.Bandwidth)
	}
	if !(l.Latency >= 0) {
		return fmt.Errorf("platform: link %q has negative latency %g", l.Name, l.Latency)
	}
	if _, dup := p.links[l.Name]; dup {
		return fmt.Errorf("%w: link %q", ErrDuplicate, l.Name)
	}
	p.links[l.Name] = l
	p.gen++
	return nil
}

// Connect declares that link l joins nodes a and b (hosts or routers),
// for use by ComputeRoutes.
func (p *Platform) Connect(a, b string, l *Link) error {
	if !p.nodeExists(a) {
		return fmt.Errorf("%w: node %q", ErrUnknown, a)
	}
	if !p.nodeExists(b) {
		return fmt.Errorf("%w: node %q", ErrUnknown, b)
	}
	if _, known := p.links[l.Name]; !known {
		if err := p.AddLink(l); err != nil {
			return err
		}
	}
	p.edges = append(p.edges, edge{a: a, b: b, link: l})
	p.gen++
	return nil
}

func (p *Platform) nodeExists(name string) bool {
	_, h := p.hosts[name]
	return h || p.routers[name]
}

// AddRoute declares an explicit (symmetric) route between two hosts.
func (p *Platform) AddRoute(src, dst string, links []*Link) error {
	if _, ok := p.hosts[src]; !ok {
		return fmt.Errorf("%w: host %q", ErrUnknown, src)
	}
	if _, ok := p.hosts[dst]; !ok {
		return fmt.Errorf("%w: host %q", ErrUnknown, dst)
	}
	for _, l := range links {
		if _, ok := p.links[l.Name]; !ok {
			if err := p.AddLink(l); err != nil {
				return err
			}
		}
	}
	ls := make([]*Link, len(links))
	copy(ls, links)
	p.routes[[2]string{src, dst}] = ls
	rev := make([]*Link, len(links))
	for i, l := range links {
		rev[len(links)-1-i] = l
	}
	p.routes[[2]string{dst, src}] = rev
	p.gen++
	return nil
}

// Host returns a host by name, or nil.
func (p *Platform) Host(name string) *Host { return p.hosts[name] }

// Link returns a link by name, or nil.
func (p *Platform) Link(name string) *Link { return p.links[name] }

// Hosts returns all hosts sorted by name.
func (p *Platform) Hosts() []*Host {
	out := make([]*Host, 0, len(p.hosts))
	for _, h := range p.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Links returns all links sorted by name.
func (p *Platform) Links() []*Link {
	out := make([]*Link, 0, len(p.links))
	for _, l := range p.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Routers returns all router names sorted.
func (p *Platform) Routers() []string {
	out := make([]string, 0, len(p.routers))
	for r := range p.routers {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Generation returns the topology generation counter: it is bumped by
// every topology mutation (AddRoute, Connect, ComputeRoutes, …), so
// layers that memoize derived routing state (surf's resolved resource
// lists) can drop their caches exactly when the platform's own route
// cache does.
func (p *Platform) Generation() uint64 { return p.gen }

// Route returns the route between two hosts. A host communicates with
// itself over an empty route (intra-host messaging costs only latency 0).
// Results are memoized per ordered pair behind a generation counter:
// repeated lookups — every transfer between the same hosts — return the
// same *Route with no allocation, and any topology mutation (AddRoute,
// Connect, ComputeRoutes, …) invalidates the whole cache at once. The
// returned route is shared: callers must not mutate it.
func (p *Platform) Route(src, dst string) (*Route, error) {
	if p.routeCache == nil || p.cacheGen != p.gen {
		p.routeCache = make(map[[2]string]*Route)
		p.cacheGen = p.gen
	}
	key := [2]string{src, dst}
	if r, ok := p.routeCache[key]; ok {
		// Cached under this generation, so both hosts were checked then
		// and still exist: hosts are only ever added.
		return r, nil
	}
	if _, ok := p.hosts[src]; !ok {
		return nil, fmt.Errorf("%w: host %q", ErrUnknown, src)
	}
	if _, ok := p.hosts[dst]; !ok {
		return nil, fmt.Errorf("%w: host %q", ErrUnknown, dst)
	}
	r := &Route{Src: src, Dst: dst}
	if src != dst {
		links, ok := p.routes[key]
		if !ok {
			return nil, fmt.Errorf("%w: %q -> %q", ErrNoRoute, src, dst)
		}
		r.Links = links
	}
	p.routeCache[key] = r
	return r, nil
}

// ComputeRoutes fills the routing table for every host pair using
// Floyd–Warshall over the Connect graph, minimizing total latency (ties
// broken deterministically by node order). Explicit AddRoute entries are
// preserved.
func (p *Platform) ComputeRoutes() error {
	// Stable node indexing.
	var names []string
	for n := range p.hosts {
		names = append(names, n)
	}
	for n := range p.routers {
		names = append(names, n)
	}
	sort.Strings(names)
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	n := len(names)
	const inf = math.MaxFloat64
	dist := make([][]float64, n)
	via := make([][]*Link, n) // link used for hop i->j on the best path
	next := make([][]int, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		via[i] = make([]*Link, n)
		next[i] = make([]int, n)
		for j := range dist[i] {
			dist[i][j] = inf
			next[i][j] = -1
		}
		dist[i][i] = 0
		next[i][i] = i
	}
	for _, e := range p.edges {
		i, j := idx[e.a], idx[e.b]
		// Cost: latency plus a tiny per-hop epsilon so that zero-latency
		// meshes still prefer fewer hops.
		w := e.link.Latency + 1e-9
		if w < dist[i][j] {
			dist[i][j], dist[j][i] = w, w
			via[i][j], via[j][i] = e.link, e.link
			next[i][j], next[j][i] = j, i
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if dist[i][k] == inf {
				continue
			}
			for j := 0; j < n; j++ {
				if dist[k][j] == inf {
					continue
				}
				if d := dist[i][k] + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
					next[i][j] = next[i][k]
					via[i][j] = via[i][k]
				}
			}
		}
	}
	// Extract host-pair routes.
	for a := range p.hosts {
		for b := range p.hosts {
			if a == b {
				continue
			}
			if _, explicit := p.routes[[2]string{a, b}]; explicit {
				continue
			}
			i, j := idx[a], idx[b]
			if next[i][j] == -1 {
				continue // disconnected; Route() will report ErrNoRoute
			}
			var links []*Link
			var hops []Hop
			for u := i; u != j; {
				v := next[u][j]
				links = append(links, via[u][j])
				hops = append(hops, Hop{A: names[u], B: names[v], Link: via[u][j]})
				u = v
			}
			p.routes[[2]string{a, b}] = links
			p.hops[[2]string{a, b}] = hops
		}
	}
	p.gen++
	return nil
}

// HopRoute returns the directed hop-level route between two hosts.
// Only available for routes computed by ComputeRoutes (explicit
// AddRoute entries carry no endpoint information).
func (p *Platform) HopRoute(src, dst string) ([]Hop, error) {
	if _, ok := p.hosts[src]; !ok {
		return nil, fmt.Errorf("%w: host %q", ErrUnknown, src)
	}
	if _, ok := p.hosts[dst]; !ok {
		return nil, fmt.Errorf("%w: host %q", ErrUnknown, dst)
	}
	if src == dst {
		return nil, nil
	}
	hops, ok := p.hops[[2]string{src, dst}]
	if !ok {
		return nil, fmt.Errorf("%w: no hop route %q -> %q", ErrNoRoute, src, dst)
	}
	return hops, nil
}

// Edges returns the undirected connection graph declared with Connect.
func (p *Platform) Edges() []Edge {
	out := make([]Edge, len(p.edges))
	for i, e := range p.edges {
		out[i] = Edge{A: e.a, B: e.b, Link: e.link}
	}
	return out
}

// Validate checks platform consistency: every declared route references
// known links and every host pair is connected (when strict).
func (p *Platform) Validate(strict bool) error {
	for key, links := range p.routes {
		for _, l := range links {
			if p.links[l.Name] != l {
				return fmt.Errorf("platform: route %v uses unregistered link %q", key, l.Name)
			}
		}
	}
	if strict {
		hosts := p.Hosts()
		for _, a := range hosts {
			for _, b := range hosts {
				if a == b {
					continue
				}
				if _, err := p.Route(a.Name, b.Name); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
