// The Node interface: the API that GRAS application code is written
// against. The same user function runs unmodified on a simNode (inside
// the simulator, sim.go) or a RealNode (over real TCP sockets,
// real.go) — the paper's headline GRAS feature. Both embed one agent,
// so receiving, dispatch and decoding are written once.

package gras

import (
	"errors"
	"fmt"
	"math"
	"net"

	"repro/internal/gras/codec"
)

// Errors returned by GRAS operations.
var (
	// ErrTimeout reports an expired Recv/Handle timeout.
	ErrTimeout = errors.New("gras: timed out")
	// ErrRefused reports a connection to a port nobody listens on.
	ErrRefused = errors.New("gras: connection refused")
	// ErrUnknownMessage reports an undeclared message type on the wire.
	ErrUnknownMessage = errors.New("gras: unknown message type")
	// ErrClosed reports use of a closed node or socket.
	ErrClosed = errors.New("gras: closed")
)

// Msg is a received message.
type Msg struct {
	Type    string
	Payload any
	// Reply is a socket back to the sender (the paper's "expeditor"),
	// usable with Send.
	Reply *Socket
	// From identifies the sender ("host:port" or TCP address).
	From string
}

// Callback handles one message type (gras_cb_register).
type Callback func(n Node, m *Msg) error

// Node is one GRAS agent: application code receives a Node and uses it
// for all communication, timing and benchmarking, staying agnostic of
// whether it runs simulated or for real.
type Node interface {
	// Name returns the agent name.
	Name() string
	// Arch returns the architecture the agent runs on.
	Arch() Arch
	// Registry returns the message-type registry (shared world-wide in
	// simulation; process-wide for real nodes).
	Registry() *Registry
	// Clock returns the agent's time in seconds (virtual or real).
	Clock() float64
	// Sleep pauses for d seconds (gras_os_sleep).
	Sleep(d float64) error
	// Listen opens a server socket on a port (gras_socket_server).
	Listen(port int) error
	// Client connects to a listening agent (gras_socket_client).
	Client(host string, port int) (*Socket, error)
	// Send emits a declared message over a socket (gras_msg_send).
	Send(s *Socket, msgType string, payload any) error
	// Recv waits for a message of the given type ("" accepts any),
	// with a timeout in seconds (<= 0: wait forever). gras_msg_wait.
	Recv(msgType string, timeout float64) (*Msg, error)
	// RegisterCB installs a callback for a message type.
	RegisterCB(msgType string, cb Callback)
	// Handle waits for one message and dispatches it to its callback
	// (gras_msg_handle).
	Handle(timeout float64) error
	// Bench measures fn's real execution time and accounts it to the
	// agent (in simulation, virtual time advances by the measured
	// duration — the paper's GRAS_BENCH_* blocks; for real nodes it
	// just runs fn). It returns the measured seconds.
	Bench(fn func()) (float64, error)
}

// Socket is a connection endpoint (gras_socket_t).
type Socket struct {
	// Peer is the remote identity ("host:port" in simulation, TCP
	// remote address for real sockets).
	Peer string

	sim  *simEndpoint
	real net.Conn
}

// transport is what each runtime supplies under the shared receive
// path: the Node handed to callbacks, and one blocking primitive.
type transport interface {
	Node
	// wait blocks until one more arrival is held (in simulation: one of
	// msgType, "" meaning any), the deadline on the agent's Clock passes
	// (ErrTimeout; +Inf never does), or the agent closes (ErrClosed).
	wait(msgType string, deadline float64) error
}

// arrival is a frame that reached an agent and was not yet taken, with
// the message type it carries.
type arrival struct {
	typ   string
	frame []byte
	from  string
	reply *Socket
}

// agent is the transport-neutral half of a GRAS agent, embedded by
// both runtimes: identity, callbacks, and the arrivals held in arrival
// order, from which Recv takes selectively.
type agent struct {
	self transport
	name string
	arch Arch
	reg  *Registry
	cbs  map[string]Callback
	held []*arrival
}

func (a *agent) Name() string        { return a.name }
func (a *agent) Arch() Arch          { return a.arch }
func (a *agent) Registry() *Registry { return a.reg }

// RegisterCB implements Node.
func (a *agent) RegisterCB(msgType string, cb Callback) {
	if a.cbs == nil {
		a.cbs = make(map[string]Callback)
	}
	a.cbs[msgType] = cb
}

// Recv implements Node: it takes the first held message of msgType,
// waiting on the transport for more arrivals until one is held.
func (a *agent) Recv(msgType string, timeout float64) (*Msg, error) {
	deadline := math.Inf(1)
	if timeout > 0 {
		deadline = a.self.Clock() + timeout
	}
	for {
		for i, m := range a.held {
			if msgType == "" || m.typ == msgType {
				a.held = append(a.held[:i], a.held[i+1:]...)
				return a.decode(m)
			}
		}
		if err := a.self.wait(msgType, deadline); err != nil {
			return nil, err
		}
	}
}

// Handle implements Node.
func (a *agent) Handle(timeout float64) error {
	m, err := a.Recv("", timeout)
	if err != nil {
		return err
	}
	cb := a.cbs[m.Type]
	if cb == nil {
		return fmt.Errorf("gras: no callback for message %q", m.Type)
	}
	return cb(a.self, m)
}

// frame is the wire encoding of one message:
//
//	[2B typeLen BE][type bytes][payload (codec frame)]
//
// The payload is encoded with the GRAS NDR codec; the overall frame
// length travels out-of-band (simulated byte count, or a 4-byte length
// prefix on real TCP).
func encodeFrame(reg *Registry, msgType string, payload any, from Arch) ([]byte, error) {
	mt, ok := reg.Lookup(msgType)
	if !ok {
		return nil, fmt.Errorf("%w: %q (declare it first)", ErrUnknownMessage, msgType)
	}
	body, err := (codec.NDR{}).Encode(mt.Desc, payload, from)
	if err != nil {
		return nil, err
	}
	if len(msgType) > 0xFFFF {
		return nil, fmt.Errorf("gras: message type name too long")
	}
	out := make([]byte, 0, 2+len(msgType)+len(body))
	out = append(out, byte(len(msgType)>>8), byte(len(msgType)))
	out = append(out, msgType...)
	out = append(out, body...)
	return out, nil
}

// splitFrame parts a wire frame into its message type and payload; ok
// is false for a frame too short to hold its type.
func splitFrame(frame []byte) (msgType string, body []byte, ok bool) {
	if len(frame) < 2 {
		return "", nil, false
	}
	tl := int(frame[0])<<8 | int(frame[1])
	if len(frame) < 2+tl {
		return "", nil, false
	}
	return string(frame[2 : 2+tl]), frame[2+tl:], true
}

// decode parses an arrival and decodes its payload for this agent's
// architecture.
func (a *agent) decode(m *arrival) (*Msg, error) {
	msgType, body, ok := splitFrame(m.frame)
	if !ok {
		return nil, codec.ErrShortBuffer
	}
	mt, ok := a.reg.Lookup(msgType)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMessage, msgType)
	}
	payload, err := (codec.NDR{}).Decode(mt.Desc, body, a.arch)
	if err != nil {
		return nil, err
	}
	return &Msg{Type: msgType, Payload: payload, Reply: m.reply, From: m.from}, nil
}
