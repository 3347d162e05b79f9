package msg

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/pool/pooltest"
)

// An actor keeps the record of its last destination and the route to
// it. What that may not get wrong is tested by running a sender through
// a script in one environment — where everything kept is in play — and
// every send of the script again on its own, by a sender that never
// sent before, in an environment built for that send alone: the two
// must agree on math.Float64bits of when the send returned and when the
// task arrived, and on who received it.

// routeStep is one move of the scripted sender: exactly one field set.
type routeStep struct {
	put     string // send one task to this host, channel 0
	migrate string // move to this host (goroutine form only)
	reroute bool   // replace the m<->w1 route by a slower one: a generation bump
}

// routeSend is the record of one put of the script.
type routeSend struct {
	from, to   string
	reroutes   int     // route replacements that preceded it
	start, end float64 // Put called, Put returned
	got        float64 // when the receiver's Get returned
	by         string  // the host whose receiver got the task
	err        string
}

const routeBytes = 2e5

// routePlatform joins two sender hosts (m, m2) to two receiver hosts
// (w1, w2) by four links with four different speeds, so a send over the
// wrong route lands at the wrong time.
func routePlatform(t *testing.T, reroutes int) *platform.Platform {
	t.Helper()
	pf := platform.New()
	for _, h := range []string{"m", "m2", "w1", "w2"} {
		if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range [][2]string{{"m", "w1"}, {"m", "w2"}, {"m2", "w1"}, {"m2", "w2"}} {
		l := &platform.Link{Name: r[0] + r[1], Bandwidth: 1e6 * float64(i+1), Latency: 1e-3 * float64(4-i)}
		if err := pf.AddRoute(r[0], r[1], []*platform.Link{l}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < reroutes; i++ {
		routeReplace(t, pf, i)
	}
	return pf
}

// routeReplace re-declares the m<->w1 route the n-th time: a detour over
// links the platform already has (surf knows no link added after it was
// built), a different one each time.
func routeReplace(t *testing.T, pf *platform.Platform, n int) {
	detours := [][]string{{"mw2", "m2w1"}, {"m2w2", "mw1", "m2w1"}}
	var links []*platform.Link
	for _, name := range detours[n] {
		links = append(links, pf.Link(name))
	}
	if err := pf.AddRoute("m", "w1", links); err != nil {
		t.Error(err)
	}
}

// routeReceivers starts a daemon on w1 and on w2, in the given form,
// that receives on channel 0 forever and stamps the send each task names.
func routeReceivers(t *testing.T, env *Environment, chains bool, sends []routeSend) {
	t.Helper()
	for _, host := range []string{"w1", "w2"} {
		host := host
		stamp := func(task *Task) {
			s := &sends[task.Data.(int)]
			s.got, s.by = env.Now(), host
		}
		if chains {
			spec := NewChain().Loop(0).Get(0).Do(func(c *ChainProc) { stamp(c.Task()) }).End().MustBuild()
			if _, err := env.StartChain("recv", host, spec, &ChainConfig{Daemon: true}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		p, err := env.NewProcess("recv", host, func(p *Process) error {
			for {
				task, err := p.Get(0)
				if err != nil {
					return err
				}
				stamp(task)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Daemonize()
	}
}

// routeSender runs steps on host from, after sleeping until time at, in
// the given form, and books every put in sends[first:]. A goroutine
// sender carries on after a failed put; a chain ends at its first.
func routeSender(t *testing.T, env *Environment, chains bool, from string, at float64, steps []routeStep, sends []routeSend, first, reroutes int) {
	t.Helper()
	pf := env.Platform()
	if chains {
		b := NewChain()
		if at > 0 {
			b.Sleep(at)
		}
		k := first
		var last *routeSend
		for _, st := range steps {
			switch {
			case st.reroute:
				n := reroutes
				reroutes++
				b.Do(func(*ChainProc) { routeReplace(t, pf, n) })
			case st.put != "":
				s, k0 := &sends[k], k
				booked := routeSend{from: from, to: st.put, reroutes: reroutes}
				k++
				b.Do(func(*ChainProc) {
					booked.start = env.Now()
					*s, last = booked, s
				})
				b.PutTask(func(*ChainProc) *Task { return &Task{Name: "t", Bytes: routeBytes, Data: k0} }, st.put, 0)
				b.Do(func(*ChainProc) { s.end, last = env.Now(), nil })
			default:
				t.Fatal("a chain cannot migrate")
			}
		}
		_, err := env.StartChain("sender", from, b.MustBuild(), &ChainConfig{OnExit: func(err error) {
			if err != nil && last != nil {
				last.end, last.err = env.Now(), err.Error()
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	_, err := env.NewProcess("sender", from, func(p *Process) error {
		if at > 0 {
			if err := p.Sleep(at); err != nil {
				return err
			}
		}
		k := first
		for _, st := range steps {
			switch {
			case st.reroute:
				routeReplace(t, pf, reroutes)
				reroutes++
			case st.migrate != "":
				if err := p.Migrate(st.migrate); err != nil {
					return err
				}
			default:
				s := &sends[k]
				*s = routeSend{from: p.Host().Name, to: st.put, reroutes: reroutes, start: p.Now()}
				if err := p.Put(&Task{Name: "t", Bytes: routeBytes, Data: k}, st.put, 0); err != nil {
					s.err = err.Error()
				}
				s.end = p.Now()
				k++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// routeScript runs the script in one environment, then each of its sends
// alone, and returns the script run's sends, also as bytes with the bits
// of every time.
func routeScript(t *testing.T, chains bool, steps []routeStep) ([]routeSend, []byte) {
	t.Helper()
	n := 0
	for _, st := range steps {
		if st.put != "" {
			n++
		}
	}
	sends := make([]routeSend, n)
	env := NewEnvironment(routePlatform(t, 0), exact())
	routeReceivers(t, env, chains, sends)
	routeSender(t, env, chains, "m", 0, steps, sends, 0, 0)
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkMailboxes(t, env)
	if env.queued[send] != 0 {
		t.Errorf("%d sends left queued", env.queued[send])
	}

	var out bytes.Buffer
	alone := make([]routeSend, n)
	for k, s := range sends {
		fmt.Fprintf(&out, "%d %s->%s %x %x %x %s %q\n", k, s.from, s.to,
			math.Float64bits(s.start), math.Float64bits(s.end), math.Float64bits(s.got), s.by, s.err)
		if s.from == "" {
			continue // a chain that ended at an earlier send
		}
		env := NewEnvironment(routePlatform(t, s.reroutes), exact())
		routeReceivers(t, env, chains, alone)
		routeSender(t, env, chains, s.from, s.start, []routeStep{{put: s.to}}, alone, k, s.reroutes)
		if err := env.Run(); err != nil {
			t.Fatalf("send %d alone: Run: %v", k, err)
		}
		if a := alone[k]; a != s {
			t.Errorf("send %d in the script: %+v\n            on its own: %+v", k, s, a)
		}
	}
	return sends, out.Bytes()
}

func TestKeptRoute(t *testing.T) {
	const unknown = `msg: unknown destination host "ghost"`
	for _, tc := range []struct {
		name   string
		steps  []routeStep
		noForm string            // a form the script cannot take
		want   map[int]routeSend // what selected sends must look like
	}{
		{
			// A master's fan-out: the kept peer is wrong for every other send.
			name:  "alternating destinations",
			steps: []routeStep{{put: "w1"}, {put: "w2"}, {put: "w1"}, {put: "w2"}, {put: "w2"}, {put: "w1"}, {put: "w1"}},
			want:  map[int]routeSend{3: {to: "w2", by: "w2"}, 6: {to: "w1", by: "w1"}},
		},
		{
			// Same peer, but the kept route starts at the host left behind.
			name:   "migrate between two sends to one peer",
			steps:  []routeStep{{put: "w1"}, {put: "w1"}, {migrate: "m2"}, {put: "w1"}, {put: "w1"}, {migrate: "m"}, {put: "w1"}},
			noForm: "chain",
			want:   map[int]routeSend{1: {from: "m", by: "w1"}, 2: {from: "m2", by: "w1"}, 4: {from: "m", by: "w1"}},
		},
		{
			// Same peer, same source, but the platform's route between them
			// was replaced: the kept handle is a generation old.
			name:  "route replaced between two sends",
			steps: []routeStep{{put: "w1"}, {put: "w1"}, {reroute: true}, {put: "w1"}, {put: "w2"}, {reroute: true}, {put: "w1"}, {put: "w1"}},
			want:  map[int]routeSend{2: {reroutes: 1, by: "w1"}, 5: {reroutes: 2, by: "w1"}},
		},
		{
			// A bad name fails as it always did and disturbs nothing kept.
			name:  "unknown host after a good send",
			steps: []routeStep{{put: "w1"}, {put: "ghost"}, {put: "w1"}, {put: "w2"}},
			want:  map[int]routeSend{1: {to: "ghost", err: unknown}},
		},
	} {
		for _, form := range []string{"goroutine", "chain"} {
			if form == tc.noForm {
				continue
			}
			t.Run(tc.name+"/"+form, func(t *testing.T) {
				var sends []routeSend
				pooltest.Replay(t, 1, func() (out []byte) {
					sends, out = routeScript(t, form == "chain", tc.steps)
					return out
				})
				for k, s := range sends {
					want, pinned := tc.want[k]
					switch {
					case form == "chain" && k > 1 && tc.want[1].err != "":
						// The chain ended at send 1.
					case pinned && want.err != "":
						if s.err != want.err || s.end != s.start || s.by != "" {
							t.Errorf("send %d: %+v, want error %q at once and no delivery", k, s, want.err)
						}
					case s.err != "" || !(s.end > s.start) || s.got != s.end:
						t.Errorf("send %d: %+v, want a delivery when the put returns", k, s)
					case pinned && want.by != s.by:
						t.Errorf("send %d received on %s, want %s", k, s.by, want.by)
					}
				}
			})
		}
	}
}

// TestKeptRouteIsKept looks at the actor: the tests above pass just as
// well with nothing kept at all.
func TestKeptRouteIsKept(t *testing.T) {
	env := NewEnvironment(routePlatform(t, 0), exact())
	sends := make([]routeSend, 8)
	routeReceivers(t, env, false, sends)
	put := func(p *Process, k int, to string) error { return p.Put(&Task{Name: "t", Bytes: 1, Data: k}, to, 0) }
	_, err := env.NewProcess("sender", "m", func(p *Process) error {
		kept := func(when, peer, src, dst string) {
			t.Helper()
			switch {
			case p.peer == nil || p.peer != env.hosts[peer]:
				t.Errorf("%s: the kept peer is not %s's record", when, peer)
			case src == "" && p.route != nil:
				t.Errorf("%s: a route is kept", when)
			case src != "":
				if p.route == nil {
					t.Fatalf("%s: no route kept", when)
				}
				if s, d := p.route.Endpoints(); s != src || d != dst {
					t.Errorf("%s: kept route %s->%s, want %s->%s", when, s, d, src, dst)
				}
			}
		}
		if p.peer != nil || p.route != nil {
			t.Error("something kept before the first send")
		}
		put(p, 0, "w1")
		kept("after a send", "w1", "m", "w1")
		first := p.route
		put(p, 1, "w1")
		if p.route != first {
			t.Error("a second send to the same peer resolved the route again")
		}
		if err := put(p, 2, "ghost"); err == nil {
			t.Error("send to an unknown host succeeded")
		}
		if env.hosts["ghost"] != nil {
			t.Error("an unknown host got a record")
		}
		kept("after a failed resolve", "w1", "m", "w1")
		put(p, 3, "w2")
		kept("after a send elsewhere", "w2", "m", "w2")
		if err := p.Migrate("m2"); err != nil {
			return err
		}
		if p.peer != nil || p.route != nil {
			t.Error("Migrate kept the old host's route")
		}
		put(p, 4, "w2")
		kept("after a send from the new host", "w2", "m2", "w2")
		if err := p.Migrate("m2"); err != nil { // to where it already is
			return err
		}
		kept("after a Migrate that moved nothing", "w2", "m2", "w2")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestRestartLandsOnTheSameRecord fails and recovers a host with four
// auto-restart senders on it, goroutine processes and chains interleaved
// by PID, each halfway through a transfer over a link of its own: the
// second lives are filed on the very record the first died on, in PID
// order, its restart queue empty, and what they send arrives exactly when
// it does from a sender that starts at the recovery in a fresh
// environment.
func TestRestartLandsOnTheSameRecord(t *testing.T) {
	const n, failAt, backAt = 4, 1.0, 2.0
	build := func() *Environment {
		pf := platform.New()
		if err := pf.AddHost(&platform.Host{Name: "server", Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			sink := fmt.Sprintf("sink%d", i)
			if err := pf.AddHost(&platform.Host{Name: sink, Power: 1e9}); err != nil {
				t.Fatal(err)
			}
			l := &platform.Link{Name: "l" + sink, Bandwidth: 1e5 * float64(i+1), Latency: 1e-3 * float64(i+1)}
			if err := pf.AddRoute("server", sink, []*platform.Link{l}); err != nil {
				t.Fatal(err)
			}
		}
		return NewEnvironment(pf, exact())
	}
	// sender i puts twice to sink i, 0.6 s each, and books when each put
	// returned: the failure at 1 s catches it in the second. (That
	// transfer outlives its sender and keeps the receiver until 1.2 s,
	// well before the recovery.)
	start := func(env *Environment, i int, at float64, ends *[]float64, restart bool) {
		sink := fmt.Sprintf("sink%d", i)
		bytes := 6e4 * float64(i+1)
		book := func() { *ends = append(*ends, env.Now()) }
		spec := NewChain().Loop(0).Get(0).End().MustBuild()
		if _, err := env.StartChain("recv", sink, spec, &ChainConfig{Daemon: true}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			b := NewChain()
			if at > 0 {
				b.Sleep(at)
			}
			spec := b.Put("a", 0, bytes, sink, 0).Do(func(*ChainProc) { book() }).
				Put("b", 0, bytes, sink, 0).Do(func(*ChainProc) { book() }).MustBuild()
			if _, err := env.StartChain(fmt.Sprintf("a%d", i), "server", spec, &ChainConfig{AutoRestart: restart}); err != nil {
				t.Fatal(err)
			}
			return
		}
		p, err := env.NewProcess(fmt.Sprintf("a%d", i), "server", func(p *Process) error {
			if at > 0 {
				if err := p.Sleep(at); err != nil {
					return err
				}
			}
			for _, name := range []string{"a", "b"} {
				if err := p.Put(NewTask(name, 0, bytes), sink, 0); err != nil {
					return err
				}
				book()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		p.SetAutoRestart(restart)
	}

	env := build()
	ends := make([][]float64, n)
	for i := range ends {
		start(env, i, 0, &ends[i], true)
	}
	// With every sender dead the run would be over: someone outlives the outage.
	if _, err := env.NewProcess("bystander", "sink0", func(p *Process) error { return p.Sleep(backAt + 1) }); err != nil {
		t.Fatal(err)
	}
	server := env.hosts["server"]
	firstLives := append([]*actor(nil), server.actors...)
	lastFirstPID := firstLives[n-1].pid // a re-armed chain is the same actor under a new PID
	eng := env.Engine()
	eng.After(failAt, func() { _ = env.Model().FailHost("server") })
	eng.After(failAt+0.5, func() {
		if len(server.actors) != 0 || len(server.restart) != n {
			t.Errorf("while down: %d actors on the record, %d queued for restart; want 0 and %d", len(server.actors), len(server.restart), n)
		}
	})
	eng.After(backAt, func() { _ = env.Model().RestoreHost("server") })
	eng.After(backAt+0.5, func() {
		if env.hosts["server"] != server {
			t.Error("the host has a new record")
		}
		if len(server.actors) != n || len(server.restart) != 0 {
			t.Fatalf("after recovery: %d actors on the record, %d queued for restart; want %d and 0", len(server.actors), len(server.restart), n)
		}
		for i, a := range server.actors {
			old := firstLives[i]
			if a.name != old.name || a.home != server || int(a.slot) != i || a.pid <= lastFirstPID || (i > 0 && a.pid <= server.actors[i-1].pid) {
				t.Errorf("slot %d holds %s pid %d (slot %d), want %s's second life in PID order", i, a.name, a.pid, a.slot, old.name)
			}
			if (a.chain != nil) != (old.chain != nil) {
				t.Errorf("%s came back in the other form", a.name)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkMailboxes(t, env)
	// The same four senders, never failed, started at the recovery.
	fresh := build()
	want := make([][]float64, n)
	for i := range want {
		start(fresh, i, backAt, &want[i], false)
	}
	if err := fresh.Run(); err != nil {
		t.Fatalf("fresh senders: Run: %v", err)
	}
	for i, got := range ends {
		// got[0] is the first life's one completed put.
		if len(got) != 3 || len(want[i]) != 2 ||
			math.Float64bits(got[1]) != math.Float64bits(want[i][0]) || math.Float64bits(got[2]) != math.Float64bits(want[i][1]) {
			t.Errorf("sender %d's puts returned at %v; from a fresh start at the recovery, %v", i, got, want[i])
		}
	}
}
