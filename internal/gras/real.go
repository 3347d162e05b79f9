// Real-world transport: the same Node interface over TCP sockets. A
// GRAS application function can be handed a RealNode instead of a
// simulation node and runs unchanged against real networks — the
// paper's "resulting application is production, not prototype".

package gras

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"time"
)

// RealNode is a GRAS agent communicating over real TCP.
type RealNode struct {
	agent
	start time.Time

	mu        sync.Mutex
	listeners []net.Listener // for Addr
	closers   []io.Closer    // every listener and connection, for Close
	closed    bool

	// inbox carries arrivals from the read loops to wait, up to 128
	// read ahead of Recv. A full inbox blocks them, which is TCP
	// backpressure on the senders; done, closed by Close, releases them.
	inbox chan *arrival
	done  chan struct{}
}

// NewRealNode creates a real-world agent. The arch parameter tags
// outgoing messages; pass ArchX86 (or the actual host architecture) —
// conversion on receipt follows the same NDR rules as in simulation.
func NewRealNode(name string, arch Arch, reg *Registry) *RealNode {
	if reg == nil {
		reg = NewRegistry()
	}
	n := &RealNode{
		start: time.Now(), //lint:allow det-wallclock real-network backend: the node clock IS the wallclock here, nothing is simulated
		inbox: make(chan *arrival, 128),
		done:  make(chan struct{}),
	}
	n.agent = agent{self: n, name: name, arch: arch, reg: reg}
	return n
}

// Clock implements Node: seconds since the node started.
func (n *RealNode) Clock() float64 { return time.Since(n.start).Seconds() } //lint:allow det-wallclock real-network backend: the node clock IS the wallclock here, nothing is simulated

// Sleep implements Node.
func (n *RealNode) Sleep(d float64) error {
	time.Sleep(time.Duration(d * float64(time.Second)))
	return nil
}

// Close shuts the node down, closing every socket.
func (n *RealNode) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	close(n.done)
	for _, c := range n.closers {
		c.Close()
	}
}

// Listen implements Node: opens a TCP server socket on 127.0.0.1:port
// (port 0 picks a free port; see Addr).
func (n *RealNode) Listen(port int) error {
	l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return err
	}
	if !n.track(l) {
		return ErrClosed
	}
	go n.acceptLoop(l)
	return nil
}

// Addr returns the listen address of the i-th Listen call (for tests
// using port 0).
func (n *RealNode) Addr(i int) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if i < 0 || i >= len(n.listeners) {
		return ""
	}
	return n.listeners[i].Addr().String()
}

func (n *RealNode) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		if !n.track(conn) {
			return
		}
		go n.readLoop(conn)
	}
}

// track records a listener or connection for Close; on a closed node
// it closes it instead and reports false.
func (n *RealNode) track(c io.Closer) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		c.Close()
		return false
	}
	if l, ok := c.(net.Listener); ok {
		n.listeners = append(n.listeners, l)
	}
	n.closers = append(n.closers, c)
	return true
}

// readLoop turns a TCP stream into framed arrivals.
func (n *RealNode) readLoop(conn net.Conn) {
	from := conn.RemoteAddr().String()
	reply := &Socket{Peer: from, real: conn}
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(lenBuf[:])
		if size > 64<<20 {
			return // refuse absurd frames
		}
		frame := make([]byte, size)
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		msgType, _, _ := splitFrame(frame)
		select {
		case n.inbox <- &arrival{typ: msgType, frame: frame, from: from, reply: reply}:
		case <-n.done:
			return
		}
	}
}

// wait moves one arrival from the read loops into the held list.
func (n *RealNode) wait(_ string, deadline float64) error {
	var expired <-chan time.Time
	if !math.IsInf(deadline, 1) {
		t := time.NewTimer(time.Duration((deadline - n.Clock()) * float64(time.Second)))
		defer t.Stop()
		expired = t.C
	}
	select {
	case m := <-n.inbox:
		n.held = append(n.held, m)
		return nil
	case <-expired:
		return ErrTimeout
	case <-n.done:
		return ErrClosed
	}
}

// Client implements Node: dials host:port.
func (n *RealNode) Client(host string, port int) (*Socket, error) {
	return n.ClientAddr(net.JoinHostPort(host, strconv.Itoa(port)))
}

// ClientAddr dials a full address ("127.0.0.1:53420"), convenient with
// ephemeral ports.
func (n *RealNode) ClientAddr(addr string) (*Socket, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrRefused, addr, err)
	}
	if !n.track(conn) {
		return nil, ErrClosed
	}
	go n.readLoop(conn) // replies may arrive on the same connection
	return &Socket{Peer: addr, real: conn}, nil
}

// Send implements Node: frames the message onto the TCP stream behind
// a 4-byte length prefix.
func (n *RealNode) Send(s *Socket, msgType string, payload any) error {
	if s == nil || s.real == nil {
		return fmt.Errorf("gras: Send on a non-real socket")
	}
	frame, err := encodeFrame(n.reg, msgType, payload, n.arch)
	if err != nil {
		return err
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(frame)), uint32(len(frame)))
	_, err = s.real.Write(append(buf, frame...))
	return err
}

// Bench implements Node: for a real node the code just runs; the
// measurement is returned so applications can log it.
func (n *RealNode) Bench(fn func()) (float64, error) {
	t0 := time.Now() //lint:allow det-wallclock real-network backend: Bench measures real execution by design
	fn()
	return time.Since(t0).Seconds(), nil //lint:allow det-wallclock real-network backend: Bench measures real execution by design
}
