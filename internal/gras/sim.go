// Simulation transport: GRAS agents running as simulated processes on
// the SURF virtual platform. Message bytes travel through the fluid
// network model; payload decoding happens on the receiving agent with
// its architecture, so cross-architecture conversion costs appear
// exactly where they would in the real world.

package gras

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/surf"
)

// World is a simulated universe of GRAS agents (the "simulation mode"
// counterpart of running each agent as a real OS process).
type World struct {
	eng   *core.Engine
	model *surf.Model
	pf    *platform.Platform
	reg   *Registry

	listeners map[listenAddr]*simNode
	nodes     []*simNode

	// BenchScale scales measured Bench durations before injecting them
	// into virtual time (1.0 = wall seconds become virtual seconds on a
	// reference-speed host). Mostly useful to make tests deterministic.
	BenchScale float64
}

// NewWorld builds a simulation world on a platform.
func NewWorld(pf *platform.Platform, cfg surf.Config) *World {
	eng := core.New()
	return &World{
		eng:        eng,
		model:      surf.New(eng, pf, cfg),
		pf:         pf,
		reg:        NewRegistry(),
		listeners:  make(map[listenAddr]*simNode),
		BenchScale: 1.0,
	}
}

// Registry returns the world's shared message registry.
func (w *World) Registry() *Registry { return w.reg }

// Engine exposes the kernel (tests, integration with other layers).
func (w *World) Engine() *core.Engine { return w.eng }

// Platform returns the simulated platform.
func (w *World) Platform() *platform.Platform { return w.pf }

// Launch creates a GRAS agent running fn on a host. The agent's
// architecture comes from the host property "arch" (default x86).
func (w *World) Launch(name, hostName string, fn func(Node) error) error {
	h := w.pf.Host(hostName)
	if h == nil {
		return fmt.Errorf("gras: unknown host %q", hostName)
	}
	arch, ok := ArchByName(h.Property("arch"))
	if !ok {
		return fmt.Errorf("gras: host %q has unknown arch %q", hostName, h.Property("arch"))
	}
	n := &simNode{world: w, host: h, cpu: w.model.HostHandle(hostName)}
	n.agent = agent{self: n, name: name, arch: arch, reg: w.reg}
	w.nodes = append(w.nodes, n)
	n.proc = w.eng.Spawn(name, h, func(p *core.Process) {
		n.err = fn(n)
	})
	n.proc.OnExit(func(error) { n.close() })
	return nil
}

// LaunchDaemon is Launch for server agents that loop forever: the
// simulation may end while they are still blocked.
func (w *World) LaunchDaemon(name, hostName string, fn func(Node) error) error {
	if err := w.Launch(name, hostName, fn); err != nil {
		return err
	}
	w.nodes[len(w.nodes)-1].proc.Daemonize()
	return nil
}

// Run executes the simulated world to completion.
func (w *World) Run() error { return w.eng.Run() }

// Now returns the current virtual time.
func (w *World) Now() float64 { return w.eng.Now() }

// NodeError returns the error returned by a launched agent's function.
func (w *World) NodeError(name string) error {
	for _, n := range w.nodes {
		if n.name == name {
			return n.err
		}
	}
	return fmt.Errorf("gras: unknown agent %q", name)
}

// simEndpoint is the simulation side of a Socket: the peer, and the
// route to it, resolved on the first Send.
type simEndpoint struct {
	peer  *simNode
	route *surf.RouteHandle
}

// simNode is a simulated GRAS agent.
type simNode struct {
	agent
	world *World
	host  *platform.Host
	cpu   *surf.HostHandle // the host's compute placement, resolved once
	proc  *core.Process

	ports  []int
	closed bool
	err    error

	// waiting is set while the agent blocks in wait for a message of
	// type waitFor ("" accepts any).
	waiting bool
	waitFor string
}

func (n *simNode) Clock() float64 { return n.world.eng.Now() }

func (n *simNode) Sleep(d float64) error { return n.proc.Sleep(d) }

// close runs once, when the agent's process exits.
func (n *simNode) close() {
	n.closed = true
	for _, p := range n.ports {
		delete(n.world.listeners, listenAddr{n.host.Name, p})
	}
}

// listenAddr is where an agent listens: a host and a port on it.
type listenAddr struct {
	host string
	port int
}

func (a listenAddr) String() string { return a.host + ":" + strconv.Itoa(a.port) }

// Listen implements Node.
func (n *simNode) Listen(port int) error {
	if n.closed {
		return ErrClosed
	}
	key := listenAddr{n.host.Name, port}
	if other, busy := n.world.listeners[key]; busy && other != n {
		return fmt.Errorf("gras: %s already in use by %q", key, other.name)
	}
	n.world.listeners[key] = n
	n.ports = append(n.ports, port)
	return nil
}

// Client implements Node.
func (n *simNode) Client(host string, port int) (*Socket, error) {
	if n.closed {
		return nil, ErrClosed
	}
	addr := listenAddr{host, port}
	peer, ok := n.world.listeners[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrRefused, addr)
	}
	return &Socket{Peer: addr.String(), sim: &simEndpoint{peer: peer}}, nil
}

// Send implements Node: the frame's bytes cross the virtual network
// (sharing bandwidth with everything else in flight), then land in the
// peer's held arrivals.
func (n *simNode) Send(s *Socket, msgType string, payload any) error {
	if n.closed {
		return ErrClosed
	}
	if s == nil || s.sim == nil {
		return fmt.Errorf("gras: Send on a non-simulation socket")
	}
	frame, err := encodeFrame(n.reg, msgType, payload, n.arch)
	if err != nil {
		return err
	}
	ep := s.sim
	if ep.route == nil {
		if ep.route, err = n.world.model.RouteHandle(n.host.Name, ep.peer.host.Name); err != nil {
			return err
		}
	}
	a, err := n.world.model.CommunicateHandle(ep.route, float64(len(frame)))
	if err != nil {
		return err
	}
	werr := a.Wait(n.proc)
	a.Release() // the action never escapes this frame
	if werr != nil {
		return werr
	}
	ep.peer.deliver(&arrival{typ: msgType, frame: frame, from: n.host.Name,
		reply: &Socket{Peer: n.name, sim: &simEndpoint{peer: n}}})
	return nil
}

// deliver holds an arrival and wakes the agent if it waits for its type.
func (n *simNode) deliver(m *arrival) {
	if n.closed {
		return // messages to dead agents vanish
	}
	n.held = append(n.held, m)
	if n.waiting && (n.waitFor == "" || n.waitFor == m.typ) {
		n.waiting = false
		n.world.eng.Wake(n.proc, nil)
	}
}

// wait blocks the agent's process until deliver or the deadline wakes it.
func (n *simNode) wait(msgType string, deadline float64) error {
	if n.closed {
		return ErrClosed
	}
	n.waiting, n.waitFor = true, msgType
	var timer *core.Timer
	if !math.IsInf(deadline, 1) {
		timer = n.world.eng.At(deadline, func() {
			if n.waiting {
				n.waiting = false
				n.world.eng.Wake(n.proc, ErrTimeout)
			}
		})
	}
	err := n.proc.BlockOn(core.SimcallRecv)
	timer.Cancel()
	n.waiting = false
	return err
}

// Bench implements Node: fn's real duration is measured and injected as
// a computation on the agent's host, so the virtual clock advances by
// the benchmarked time (scaled by the host's availability), exactly
// like GRAS_BENCH_ALWAYS_BEGIN/END.
func (n *simNode) Bench(fn func()) (float64, error) {
	t0 := time.Now() //lint:allow det-wallclock execution-driven seam: real compute is measured once, then injected as simulated flops
	fn()
	dt := time.Since(t0).Seconds() * n.world.BenchScale //lint:allow det-wallclock execution-driven seam: real compute is measured once, then injected as simulated flops
	// The measurement machine is taken as the reference: dt seconds of
	// real work become dt × Power flops on this host.
	a, err := n.world.model.ExecuteHandle(n.cpu, dt*n.host.Power, 1)
	if err != nil {
		return dt, err
	}
	werr := a.Wait(n.proc)
	a.Release()
	return dt, werr
}
