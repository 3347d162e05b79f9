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
// Key invariant: the routing table holds one shared *Route per ordered
// host pair, built where the route is declared (AddRoute) or computed
// (ComputeRoutes) and replaced only when one of them rewrites that
// pair. Route hands the record itself out, so callers treat it as
// read-only. One ComputeRoutes call backs all its pairs' Links and hops
// with one link array and one hop array, each pair a window capped at
// its own length. Every topology mutation bumps a generation counter
// (Generation), so state derived from routes by upper layers (surf's
// resolved resource lists) is valid exactly as long as it matches.
package platform

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/pool"
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
	// traffic. Requires hop-level routes, and Connect and AddRoute
	// enforce it: such a link joins two distinct nodes through exactly
	// one Connect edge and is never part of an explicit route.
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

	// ends are the two nodes a split-duplex link's one Connect edge
	// joins, in declaration order; joined says the edge exists.
	ends   [2]string
	joined bool
}

// Ends returns the two nodes a split-duplex link joins, in the order
// its Connect edge named them; ok is false for any other link and for a
// split-duplex link no edge uses yet.
func (l *Link) Ends() (a, b string, ok bool) { return l.ends[0], l.ends[1], l.joined }

// Route is an ordered list of links joining two hosts. Routes returned
// by Platform.Route are the platform's own records, shared between
// callers: treat them as immutable.
type Route struct {
	Src, Dst string
	Links    []*Link

	hops []Hop // the links' crossing nodes; nil for an explicit route
}

// Latency returns the sum of link latencies along the route.
func (r *Route) Latency() float64 {
	sum := 0.0
	for _, l := range r.Links {
		sum += l.Latency
	}
	return sum
}

// Dir returns which way the route crosses its i-th link, as an index
// into the link's Ends: 1 toward the second node, 0 toward the first.
// It is 0 for every link that is not split-duplex, since those have one
// capacity for both ways.
func (r *Route) Dir(i int) int {
	if l := r.Links[i]; l.joined && r.hops[i].B == l.ends[1] {
		return 1
	}
	return 0
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

// Platform is a set of hosts, routers, links and routes.
// The zero value is unusable; call New.
type Platform struct {
	hosts   map[string]*Host
	routers map[string]bool
	links   map[string]*Link
	edges   []edge

	// routes is the routing table: one record per ordered host pair,
	// keyed by host names only, so a hit needs no host check.
	routes    map[[2]string]*Route
	gen       uint64
	routeSlab pool.Slab[Route] // the records of routes
}

// New returns an empty platform.
func New() *Platform {
	return &Platform{
		hosts:   make(map[string]*Host),
		routers: make(map[string]bool),
		links:   make(map[string]*Link),
		routes:  make(map[[2]string]*Route),
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
// for use by ComputeRoutes. l is registered on first use; a link name
// already registered must come with the same *Link. A split-duplex link
// is oriented by its edge, so it takes exactly one, between two
// distinct nodes: a self-edge would give both directions one name, and
// a second edge (here or in another platform) would leave the
// direction of a hop undecided.
func (p *Platform) Connect(a, b string, l *Link) error {
	if !p.nodeExists(a) {
		return fmt.Errorf("%w: node %q", ErrUnknown, a)
	}
	if !p.nodeExists(b) {
		return fmt.Errorf("%w: node %q", ErrUnknown, b)
	}
	if l.Policy == SplitDuplex {
		if a == b {
			return fmt.Errorf("%w: split-duplex link %q joins %q to itself", ErrDuplicate, l.Name, a)
		}
		if l.joined {
			return fmt.Errorf("%w: split-duplex link %q already joins %q and %q", ErrDuplicate, l.Name, l.ends[0], l.ends[1])
		}
	}
	if err := p.useLink(l); err != nil {
		return err
	}
	if l.Policy == SplitDuplex {
		l.ends, l.joined = [2]string{a, b}, true
	}
	p.edges = append(p.edges, edge{a: a, b: b, link: l})
	p.gen++
	return nil
}

// useLink registers l on first use of its name. A name already taken
// must be taken by this very link: surf models a link by name, so a
// second declaration under it would silently become the first.
func (p *Platform) useLink(l *Link) error {
	known, ok := p.links[l.Name]
	if !ok {
		return p.AddLink(l)
	}
	if known != l {
		return fmt.Errorf("%w: link %q names another *Link already", ErrDuplicate, l.Name)
	}
	return nil
}

func (p *Platform) nodeExists(name string) bool {
	_, h := p.hosts[name]
	return h || p.routers[name]
}

// AddRoute declares an explicit (symmetric) route between two hosts.
// Links are registered as in Connect. An explicit route names no nodes
// between its hosts, so it cannot say which way it crosses a
// split-duplex link and may not use one. A host's route to itself stays
// empty whatever it names.
func (p *Platform) AddRoute(src, dst string, links []*Link) error {
	if _, ok := p.hosts[src]; !ok {
		return fmt.Errorf("%w: host %q", ErrUnknown, src)
	}
	if _, ok := p.hosts[dst]; !ok {
		return fmt.Errorf("%w: host %q", ErrUnknown, dst)
	}
	for _, l := range links {
		if l.Policy == SplitDuplex {
			return fmt.Errorf("platform: explicit route %q -> %q uses split-duplex link %q", src, dst, l.Name)
		}
		if err := p.useLink(l); err != nil {
			return err
		}
	}
	p.gen++
	if src == dst {
		return nil
	}
	n := len(links)
	ls := make([]*Link, 2*n) // this way, then the reverse
	copy(ls, links)
	for i, l := range links {
		ls[2*n-1-i] = l
	}
	rs := p.routeSlab.Make(2)
	rs[0] = Route{Src: src, Dst: dst, Links: ls[:n:n]}
	rs[1] = Route{Src: dst, Dst: src, Links: ls[n:]}
	p.routes[[2]string{src, dst}] = &rs[0]
	p.routes[[2]string{dst, src}] = &rs[1]
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
	slices.SortFunc(out, func(a, b *Host) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Links returns all links sorted by name.
func (p *Platform) Links() []*Link {
	out := make([]*Link, 0, len(p.links))
	for _, l := range p.links {
		out = append(out, l)
	}
	slices.SortFunc(out, func(a, b *Link) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Routers returns all router names sorted.
func (p *Platform) Routers() []string {
	out := make([]string, 0, len(p.routers))
	for r := range p.routers {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// Generation returns the topology generation counter: it is bumped by
// every topology mutation (AddRoute, Connect, ComputeRoutes, …), so
// layers that memoize derived routing state (surf's resolved resource
// lists) can drop their caches whenever a route may have changed.
func (p *Platform) Generation() uint64 { return p.gen }

// Route returns the route between two hosts. A host communicates with
// itself over an empty route (intra-host messaging costs only latency 0).
// The answer is the pair's record in the routing table: every lookup of
// a pair — every transfer between the same hosts — gets the same *Route
// with one map hit and no allocation, until AddRoute or ComputeRoutes
// rewrites the pair. The returned route is shared: callers must not
// mutate it.
func (p *Platform) Route(src, dst string) (*Route, error) {
	key := [2]string{src, dst}
	if r, ok := p.routes[key]; ok {
		// Only hosts have records, and hosts are never removed.
		return r, nil
	}
	if _, ok := p.hosts[src]; !ok {
		return nil, fmt.Errorf("%w: host %q", ErrUnknown, src)
	}
	if _, ok := p.hosts[dst]; !ok {
		return nil, fmt.Errorf("%w: host %q", ErrUnknown, dst)
	}
	if src != dst {
		return nil, fmt.Errorf("%w: %q -> %q", ErrNoRoute, src, dst)
	}
	self := p.routeSlab.New() // the first lookup of a self route records it
	*self = Route{Src: src, Dst: dst}
	p.routes[key] = self
	return self, nil
}

// ComputeRoutes fills the routing table for every host pair using
// Floyd–Warshall over the Connect graph, minimizing total latency (ties
// broken deterministically by node order). Explicit AddRoute entries are
// preserved; routes an earlier call computed are recomputed, so links
// connected since then are used.
func (p *Platform) ComputeRoutes() error {
	// Stable node indexing.
	var names []string
	for n := range p.hosts {
		names = append(names, n)
	}
	for n := range p.routers {
		names = append(names, n)
	}
	slices.Sort(names)
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
	// Extract host-pair routes: count every computed pair's hops, then
	// give each pair a window of one link array and one hop array.
	total := 0
	p.eachComputed(idx, next, func(_, _ string, _, _, n int) { total += n })
	links, hops := make([]*Link, total), make([]Hop, total)
	p.eachComputed(idx, next, func(a, b string, i, j, n int) {
		r := p.routeSlab.New()
		*r = Route{Src: a, Dst: b, Links: links[:n:n], hops: hops[:n:n]} // cap == len: an append cannot overrun the next pair
		links, hops = links[n:], hops[n:]
		for u, k := i, 0; u != j; k++ {
			v := next[u][j]
			r.Links[k] = via[u][j]
			r.hops[k] = Hop{A: names[u], B: names[v], Link: via[u][j]}
			u = v
		}
		p.routes[[2]string{a, b}] = r
	})
	p.gen++
	return nil
}

// eachComputed calls f for every ordered host pair ComputeRoutes
// fills — distinct, not explicit, connected — with the pair's node
// indices and hop count. ComputeRoutes' two walks see the same pairs:
// a record the second one stores has hops, so it is not explicit.
func (p *Platform) eachComputed(idx map[string]int, next [][]int, f func(a, b string, i, j, n int)) {
	for a := range p.hosts {
		for b := range p.hosts {
			i, j := idx[a], idx[b]
			if a == b || p.explicit([2]string{a, b}) || next[i][j] == -1 {
				continue // next -1: disconnected, Route reports ErrNoRoute
			}
			n := 0
			for u := i; u != j; u = next[u][j] {
				n++
			}
			f(a, b, i, j, n)
		}
	}
}

// explicit reports whether key's route was declared by AddRoute: it has
// a record but, unlike a computed route, no hops. A self route counts,
// and it is skipped wherever explicit is asked.
func (p *Platform) explicit(key [2]string) bool {
	r, ok := p.routes[key]
	return ok && r.hops == nil
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
	r, ok := p.routes[[2]string{src, dst}]
	if !ok || r.hops == nil {
		return nil, fmt.Errorf("%w: no hop route %q -> %q", ErrNoRoute, src, dst)
	}
	return r.hops, nil
}

// Validate checks platform consistency: every declared route references
// known links and every host pair is connected (when strict).
func (p *Platform) Validate(strict bool) error {
	for key, r := range p.routes {
		for _, l := range r.Links {
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
