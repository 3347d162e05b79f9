package platform

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// refTable is the route table as two maps filled by append: explicit
// routes in routes alone, computed ones in routes and heads (the node
// each link leads to). It is kept as the reference the shared per-pair
// records must reproduce.
type refTable struct {
	routes map[[2]string][]*Link
	heads  map[[2]string][]string
}

func newRefTable() *refTable {
	return &refTable{routes: map[[2]string][]*Link{}, heads: map[[2]string][]string{}}
}

// addRoute is AddRoute's write of both directions.
func (t *refTable) addRoute(src, dst string, links []*Link) {
	ls := make([]*Link, len(links))
	copy(ls, links)
	t.routes[[2]string{src, dst}] = ls
	rev := make([]*Link, len(links))
	for i, l := range links {
		rev[len(links)-1-i] = l
	}
	t.routes[[2]string{dst, src}] = rev
	delete(t.heads, [2]string{src, dst})
	delete(t.heads, [2]string{dst, src})
}

// compute is ComputeRoutes over p's nodes and edges: Floyd–Warshall on
// latency plus a per-hop epsilon, then each host pair's path walked
// with append, skipping explicit routes.
func (t *refTable) compute(p *Platform) {
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
	via := make([][]*Link, n)
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
	for a := range p.hosts {
		for b := range p.hosts {
			if a == b {
				continue
			}
			key := [2]string{a, b}
			if _, ok := t.routes[key]; ok && t.heads[key] == nil {
				continue
			}
			i, j := idx[a], idx[b]
			if next[i][j] == -1 {
				continue
			}
			var links []*Link
			var heads []string
			for u := i; u != j; {
				v := next[u][j]
				links = append(links, via[u][j])
				heads = append(heads, names[v])
				u = v
			}
			t.routes[key] = links
			t.heads[key] = heads
		}
	}
}

// dir is Route.Dir read off the reference's links and heads.
func (t *refTable) dir(key [2]string, i int) int {
	if l := t.routes[key][i]; l.joined && t.heads[key][i] == l.ends[1] {
		return 1
	}
	return 0
}

// head is Route.Head read off the reference: "" on an explicit route.
func (t *refTable) head(key [2]string, i int) string {
	if hs := t.heads[key]; hs != nil {
		return hs[i]
	}
	return ""
}

// checkAgainstRef compares Route, Head and Dir with the reference for
// every ordered host pair of p.
func checkAgainstRef(t *testing.T, p *Platform, ref *refTable) {
	t.Helper()
	computed := 0
	for _, a := range p.Hosts() {
		for _, b := range p.Hosts() {
			key := [2]string{a.Name, b.Name}
			r, err := p.Route(a.Name, b.Name)
			if a == b {
				if err != nil || len(r.Links) != 0 || r.heads != nil {
					t.Errorf("self route %s: %v (%v), heads %v; want empty", a.Name, r, err, r.heads)
				}
				continue
			}
			links, ok := ref.routes[key]
			if !ok {
				if !errors.Is(err, ErrNoRoute) {
					t.Errorf("%v: Route err %v; want ErrNoRoute", key, err)
				}
				continue
			}
			if err != nil || !slices.Equal(r.Links, links) {
				t.Errorf("%v: Route = %v (%v), reference %v", key, r, err, names(links))
				continue
			}
			// Pairs share backing arrays: a window with spare capacity
			// would let an append overwrite the next pair's route.
			if cap(r.Links) != len(r.Links) || cap(r.heads) != len(r.heads) {
				t.Errorf("%v: Links cap %d len %d, heads cap %d len %d; want cap == len",
					key, cap(r.Links), len(r.Links), cap(r.heads), len(r.heads))
			}
			if r.heads != nil {
				computed++
				if len(r.heads) != len(links) {
					t.Errorf("%v: %d heads for %d links", key, len(r.heads), len(links))
					continue
				}
			}
			for i := range links {
				if got, want := r.Head(i), ref.head(key, i); got != want {
					t.Errorf("%v: Head(%d) = %q, reference %q", key, i, got, want)
				}
				if got, want := r.Dir(i), ref.dir(key, i); got != want {
					t.Errorf("%v: Dir(%d) = %d, reference %d", key, i, got, want)
				}
			}
		}
	}
	if computed == 0 {
		t.Error("no computed route was compared")
	}
}

// TestRoutesMatchReference holds every route, head list and crossing
// direction to the two-map reference on three platforms: the bench's
// Waxman graph, a cluster behind a backbone, and a JSON platform with
// split-duplex links where explicit routes lie over computed pairs.
func TestRoutesMatchReference(t *testing.T) {
	t.Run("waxman", func(t *testing.T) {
		p, err := GenerateWaxman(DefaultWaxmanConfig(24, 7))
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTable()
		ref.compute(p)
		checkAgainstRef(t, p, ref)
	})
	t.Run("cluster", func(t *testing.T) {
		p, _, err := NewCluster(ClusterConfig{Prefix: "c", Hosts: 8, Power: 1e9, Bandwidth: 1.25e8, Latency: 1e-4, Backbone: 1e9, BackboneLatency: 1e-5})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTable()
		ref.compute(p)
		checkAgainstRef(t, p, ref)
	})
	t.Run("json", func(t *testing.T) {
		src := `{
		  "hosts": [{"name": "a", "power": 1}, {"name": "b", "power": 1}, {"name": "c", "power": 1},
		            {"name": "d", "power": 1}, {"name": "e", "power": 1}],
		  "routers": ["r1", "r2"],
		  "links": [{"name": "ar1", "bandwidth": 100, "latency": 0.1, "policy": "splitduplex"},
		            {"name": "r1b", "bandwidth": 100, "latency": 0.1, "policy": "splitduplex"},
		            {"name": "r2r1", "bandwidth": 50, "latency": 0.2, "policy": "splitduplex"},
		            {"name": "cr2", "bandwidth": 100, "latency": 0.1},
		            {"name": "dr2", "bandwidth": 100, "latency": 0.1, "policy": "fatpipe"},
		            {"name": "wan", "bandwidth": 10, "latency": 1}],
		  "edges": [{"a": "a", "b": "r1", "link": "ar1"}, {"a": "r1", "b": "b", "link": "r1b"},
		            {"a": "r2", "b": "r1", "link": "r2r1"}, {"a": "c", "b": "r2", "link": "cr2"},
		            {"a": "d", "b": "r2", "link": "dr2"}],
		  "routes": [{"src": "c", "dst": "a", "links": ["wan", "cr2"]}]
		}`
		p, err := Load(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTable()
		ref.addRoute("c", "a", []*Link{p.Link("wan"), p.Link("cr2")})
		ref.compute(p)
		checkAgainstRef(t, p, ref)

		// An explicit route laid over a computed pair replaces it in both
		// directions, and a recompute keeps it.
		over := []*Link{p.Link("wan")}
		if err := p.AddRoute("d", "b", over); err != nil {
			t.Fatal(err)
		}
		ref.addRoute("d", "b", over)
		checkAgainstRef(t, p, ref)
		if err := p.ComputeRoutes(); err != nil {
			t.Fatal(err)
		}
		ref.compute(p)
		checkAgainstRef(t, p, ref)
	})
}
