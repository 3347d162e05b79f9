// Simulation transport: GRAS agents running as simulated processes on
// the SURF virtual platform. Message bytes travel through the fluid
// network model; payload decoding happens on the receiving agent with
// its architecture, so cross-architecture conversion costs appear
// exactly where they would in the real world.

package gras

import (
	"fmt"
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
	n := &simNode{world: w, name: name, host: h, cpu: w.model.HostHandle(hostName), arch: arch}
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

// simEndpoint is the simulation side of a Socket.
type simEndpoint struct {
	owner *simNode
	peer  *simNode
}

// inMsg is a message queued at an agent, still in wire form.
type inMsg struct {
	frame []byte
	from  *simNode
}

// simNode is a simulated GRAS agent.
type simNode struct {
	world *World
	name  string
	host  *platform.Host
	cpu   *surf.HostHandle // the host's compute placement, resolved once
	arch  Arch
	proc  *core.Process

	ports  []int
	inbox  []*inMsg
	cbs    map[string]Callback
	closed bool
	err    error

	// recvWait is non-nil while the agent blocks in Recv/Handle.
	recvWait *recvWaiter
}

type recvWaiter struct {
	msgType string // "" accepts anything
	got     *inMsg
}

func (n *simNode) Name() string        { return n.name }
func (n *simNode) Arch() Arch          { return n.arch }
func (n *simNode) Registry() *Registry { return n.world.reg }
func (n *simNode) Clock() float64      { return n.world.eng.Now() }

func (n *simNode) Sleep(d float64) error { return n.proc.Sleep(d) }

func (n *simNode) close() {
	if n.closed {
		return
	}
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
	return &Socket{
		Peer: addr.String(),
		sim:  &simEndpoint{owner: n, peer: peer},
	}, nil
}

// Send implements Node: the frame's bytes cross the virtual network
// (sharing bandwidth with everything else in flight), then land in the
// peer's inbox.
func (n *simNode) Send(s *Socket, msgType string, payload any) error {
	if n.closed {
		return ErrClosed
	}
	if s == nil || s.sim == nil {
		return fmt.Errorf("gras: Send on a non-simulation socket")
	}
	frame, err := encodeFrame(n.world.reg, msgType, payload, n.arch)
	if err != nil {
		return err
	}
	peer := s.sim.peer
	a, err := n.world.model.Communicate(n.host.Name, peer.host.Name, float64(len(frame)))
	if err != nil {
		return err
	}
	werr := a.Wait(n.proc)
	a.Release() // the action never escapes this frame
	if werr != nil {
		return werr
	}
	m := &inMsg{frame: frame, from: n}
	peer.deliver(m)
	return nil
}

// deliver places a message in the inbox and wakes a matching waiter.
func (n *simNode) deliver(m *inMsg) {
	if n.closed {
		return // messages to dead agents vanish
	}
	if w := n.recvWait; w != nil && (w.msgType == "" || w.msgType == frameType(m.frame)) {
		w.got = m
		n.recvWait = nil
		n.world.eng.Wake(n.proc, nil)
		return
	}
	n.inbox = append(n.inbox, m)
}

// frameType peeks the message type of a wire frame.
func frameType(frame []byte) string {
	if len(frame) < 2 {
		return ""
	}
	tl := int(frame[0])<<8 | int(frame[1])
	if len(frame) < 2+tl {
		return ""
	}
	return string(frame[2 : 2+tl])
}

// takeFromInbox pops the first queued message matching msgType.
func (n *simNode) takeFromInbox(msgType string) *inMsg {
	for i, m := range n.inbox {
		if msgType == "" || frameType(m.frame) == msgType {
			n.inbox = append(n.inbox[:i], n.inbox[i+1:]...)
			return m
		}
	}
	return nil
}

// Recv implements Node.
func (n *simNode) Recv(msgType string, timeout float64) (*Msg, error) {
	m, err := n.recvRaw(msgType, timeout)
	if err != nil {
		return nil, err
	}
	return n.finish(m)
}

func (n *simNode) recvRaw(msgType string, timeout float64) (*inMsg, error) {
	if n.closed {
		return nil, ErrClosed
	}
	if m := n.takeFromInbox(msgType); m != nil {
		return m, nil
	}
	w := &recvWaiter{msgType: msgType}
	n.recvWait = w
	var timer *core.Timer
	if timeout > 0 {
		timer = n.world.eng.After(timeout, func() {
			if n.recvWait == w {
				n.recvWait = nil
				n.world.eng.Wake(n.proc, ErrTimeout)
			}
		})
	}
	err := n.proc.BlockOn(core.SimcallRecv)
	if timer != nil {
		timer.Cancel()
	}
	if err != nil {
		return nil, err
	}
	if w.got == nil {
		return nil, fmt.Errorf("gras: woken without a message")
	}
	return w.got, nil
}

// finish decodes a raw message on this agent's architecture.
func (n *simNode) finish(m *inMsg) (*Msg, error) {
	msgType, payload, err := decodeFrame(n.world.reg, m.frame, n.arch)
	if err != nil {
		return nil, err
	}
	return &Msg{
		Type:    msgType,
		Payload: payload,
		From:    m.from.host.Name,
		Reply:   &Socket{Peer: m.from.name, sim: &simEndpoint{owner: n, peer: m.from}},
	}, nil
}

// RegisterCB implements Node.
func (n *simNode) RegisterCB(msgType string, cb Callback) {
	if n.cbs == nil {
		n.cbs = make(map[string]Callback)
	}
	n.cbs[msgType] = cb
}

// Handle implements Node.
func (n *simNode) Handle(timeout float64) error {
	m, err := n.recvRaw("", timeout)
	if err != nil {
		return err
	}
	msg, err := n.finish(m)
	if err != nil {
		return err
	}
	cb := n.cbs[msg.Type]
	if cb == nil {
		return fmt.Errorf("gras: no callback for message %q", msg.Type)
	}
	return cb(n, msg)
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
