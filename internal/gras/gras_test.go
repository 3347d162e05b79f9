package gras

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/surf"
)

func exact() surf.Config { return surf.Config{BandwidthFactor: 1, LatencyFactor: 1} }

// grasPlatform: two hosts with different architectures over a LAN link.
func grasPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	p := platform.New()
	p.AddHost(&platform.Host{Name: "cli", Power: 1e9,
		Properties: map[string]string{"arch": "x86"}})
	p.AddHost(&platform.Host{Name: "srv", Power: 1e9,
		Properties: map[string]string{"arch": "sparc"}})
	l := &platform.Link{Name: "lan", Bandwidth: 1.25e7, Latency: 0.0001}
	if err := p.AddRoute("cli", "srv", []*platform.Link{l}); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRegistryDeclareLookup(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Declare("ping", int32(0)); err != nil {
		t.Fatalf("Declare: %v", err)
	}
	if _, err := reg.Declare("ping", int32(0)); err != nil {
		t.Errorf("idempotent redeclare failed: %v", err)
	}
	if _, err := reg.Declare("ping", "different type"); err == nil {
		t.Error("conflicting redeclare accepted")
	}
	if _, ok := reg.Lookup("ping"); !ok {
		t.Error("Lookup failed")
	}
	if _, ok := reg.Lookup("nope"); ok {
		t.Error("ghost type resolved")
	}
	reg.Declare("alpha", float64(0))
	names := reg.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "ping" {
		t.Errorf("Names = %v", names)
	}
	if _, err := reg.Declare("bad", map[int]int{}); err == nil {
		t.Error("map payload accepted")
	}
}

// The paper's ping-pong, written once against the Node interface.
func pingClient(serverHost string, port int) func(Node) error {
	return func(n Node) error {
		n.Registry().Declare("ping", int32(0))
		n.Registry().Declare("pong", int32(0))
		n.Sleep(0.01) // wait for the server startup (paper: gras_os_sleep)
		peer, err := n.Client(serverHost, port)
		if err != nil {
			return err
		}
		if err := n.Send(peer, "ping", int32(1234)); err != nil {
			return err
		}
		msg, err := n.Recv("pong", 60)
		if err != nil {
			return err
		}
		if got := msg.Payload.(int32); got != 4321 {
			return fmt.Errorf("pong payload = %d, want 4321", got)
		}
		return nil
	}
}

func pingServer(port int) func(Node) error {
	return func(n Node) error {
		n.Registry().Declare("ping", int32(0))
		n.Registry().Declare("pong", int32(0))
		n.RegisterCB("ping", func(n Node, m *Msg) error {
			if m.Payload.(int32) != 1234 {
				return fmt.Errorf("bad ping payload %v", m.Payload)
			}
			return n.Send(m.Reply, "pong", int32(4321))
		})
		if err := n.Listen(port); err != nil {
			return err
		}
		return n.Handle(60)
	}
}

func TestPingPongSimulation(t *testing.T) {
	w := NewWorld(grasPlatform(t), exact())
	if err := w.Launch("server", "srv", pingServer(4000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Launch("client", "cli", pingClient("srv", 4000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := w.NodeError("client"); err != nil {
		t.Errorf("client: %v", err)
	}
	if err := w.NodeError("server"); err != nil {
		t.Errorf("server: %v", err)
	}
	if w.Now() <= 0.01 {
		t.Errorf("virtual time %g: transfers took no time", w.Now())
	}
}

// The SAME functions run over real TCP — the paper's headline feature.
func TestPingPongRealWorld(t *testing.T) {
	reg := NewRegistry()
	server := NewRealNode("server", ArchSparc, reg)
	defer server.Close()
	client := NewRealNode("client", ArchX86, reg)
	defer client.Close()

	if err := server.Listen(0); err != nil {
		t.Fatal(err)
	}
	addr := server.Addr(0)
	serverErr := make(chan error, 1)
	go func() {
		server.Registry().Declare("ping", int32(0))
		server.Registry().Declare("pong", int32(0))
		server.RegisterCB("ping", func(n Node, m *Msg) error {
			return n.Send(m.Reply, "pong", int32(4321))
		})
		serverErr <- server.Handle(10)
	}()

	client.Registry().Declare("ping", int32(0))
	client.Registry().Declare("pong", int32(0))
	sock, err := client.ClientAddr(addr)
	if err != nil {
		t.Fatalf("ClientAddr: %v", err)
	}
	if err := client.Send(sock, "ping", int32(1234)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msg, err := client.Recv("pong", 10)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if msg.Payload.(int32) != 4321 {
		t.Errorf("pong = %v", msg.Payload)
	}
	if err := <-serverErr; err != nil {
		t.Errorf("server Handle: %v", err)
	}
}

func TestCrossArchitecturePayloadSim(t *testing.T) {
	// x86 client sends a struct to a sparc server: byte order differs,
	// NDR must convert on receipt.
	type payload struct {
		A uint32
		B string
		C []float64
	}
	w := NewWorld(grasPlatform(t), exact())
	var got payload
	w.Launch("server", "srv", func(n Node) error {
		n.Registry().Declare("data", payload{})
		if err := n.Listen(4000); err != nil {
			return err
		}
		m, err := n.Recv("data", 60)
		if err != nil {
			return err
		}
		got = m.Payload.(payload)
		return nil
	})
	w.Launch("client", "cli", func(n Node) error {
		n.Registry().Declare("data", payload{})
		n.Sleep(0.01)
		s, err := n.Client("srv", 4000)
		if err != nil {
			return err
		}
		return n.Send(s, "data", payload{A: 0xCAFEBABE, B: "hello", C: []float64{1.5, -2.5}})
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := w.NodeError("server"); err != nil {
		t.Fatalf("server: %v", err)
	}
	if got.A != 0xCAFEBABE || got.B != "hello" || len(got.C) != 2 || got.C[1] != -2.5 {
		t.Errorf("payload corrupted across architectures: %+v", got)
	}
}

func TestSimMessageTakesNetworkTime(t *testing.T) {
	// 1.25 MB over a 12.5 MB/s link = 0.1 s + latency.
	w := NewWorld(grasPlatform(t), exact())
	type blob struct{ Data []uint8 }
	var recvAt float64
	w.Launch("server", "srv", func(n Node) error {
		n.Registry().Declare("blob", blob{})
		n.Listen(1)
		_, err := n.Recv("blob", 60)
		recvAt = n.Clock()
		return err
	})
	w.Launch("client", "cli", func(n Node) error {
		n.Registry().Declare("blob", blob{})
		n.Sleep(0.001)
		s, _ := n.Client("srv", 1)
		return n.Send(s, "blob", blob{Data: make([]uint8, 1250000)})
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if recvAt < 0.1 {
		t.Errorf("1.25MB arrived at %g s, want >= 0.1 s", recvAt)
	}
	if recvAt > 0.2 {
		t.Errorf("1.25MB took %g s, too slow", recvAt)
	}
}

func TestRecvTimeoutSim(t *testing.T) {
	w := NewWorld(grasPlatform(t), exact())
	var gotErr error
	w.Launch("waiter", "srv", func(n Node) error {
		n.Listen(9)
		_, gotErr = n.Recv("never", 0.5)
		return nil
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, ErrTimeout) {
		t.Errorf("Recv = %v, want ErrTimeout", gotErr)
	}
	if w.Now() != 0.5 {
		t.Errorf("timed out at %g", w.Now())
	}
}

func TestConnectionRefusedSim(t *testing.T) {
	w := NewWorld(grasPlatform(t), exact())
	var gotErr error
	w.Launch("client", "cli", func(n Node) error {
		_, gotErr = n.Client("srv", 12345)
		return nil
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, ErrRefused) || gotErr.Error() != "gras: connection refused: srv:12345" {
		t.Errorf("Client = %v, want ErrRefused naming srv:12345", gotErr)
	}
}

func TestPortCollisionSim(t *testing.T) {
	w := NewWorld(grasPlatform(t), exact())
	var err1, err2 error
	w.Launch("a", "srv", func(n Node) error {
		err1 = n.Listen(80)
		n.Sleep(1)
		return nil
	})
	var peer string
	w.Launch("b", "srv", func(n Node) error {
		n.Sleep(0.1)
		err2 = n.Listen(80)
		if s, err := n.Client("srv", 80); err == nil {
			peer = s.Peer
		}
		return nil
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err1 != nil {
		t.Errorf("first Listen: %v", err1)
	}
	if err2 == nil || err2.Error() != `gras: srv:80 already in use by "a"` {
		t.Errorf("second Listen = %v, want the collision named", err2)
	}
	if peer != "srv:80" {
		t.Errorf("Socket.Peer = %q, want srv:80", peer)
	}
}

func TestUndeclaredMessageRejected(t *testing.T) {
	w := NewWorld(grasPlatform(t), exact())
	var sendErr error
	w.Launch("server", "srv", func(n Node) error {
		n.Listen(4)
		n.Sleep(1)
		return nil
	})
	w.Launch("client", "cli", func(n Node) error {
		n.Sleep(0.01)
		s, err := n.Client("srv", 4)
		if err != nil {
			return err
		}
		sendErr = n.Send(s, "mystery", int32(1))
		return nil
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(sendErr, ErrUnknownMessage) {
		t.Errorf("Send = %v, want ErrUnknownMessage", sendErr)
	}
}

func TestHandleDispatchesToCallback(t *testing.T) {
	w := NewWorld(grasPlatform(t), exact())
	calls := 0
	w.LaunchDaemon("server", "srv", func(n Node) error {
		n.Registry().Declare("evt", uint8(0))
		n.RegisterCB("evt", func(n Node, m *Msg) error {
			calls++
			return nil
		})
		n.Listen(5)
		for {
			if err := n.Handle(60); err != nil {
				return err
			}
		}
	})
	w.Launch("client", "cli", func(n Node) error {
		n.Registry().Declare("evt", uint8(0))
		n.Sleep(0.01)
		s, err := n.Client("srv", 5)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := n.Send(s, "evt", uint8(i)); err != nil {
				return err
			}
		}
		return n.Sleep(0.1) // let the last event arrive
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 3 {
		t.Errorf("callback ran %d times, want 3", calls)
	}
}

func TestHandleWithoutCallbackErrors(t *testing.T) {
	w := NewWorld(grasPlatform(t), exact())
	var handleErr error
	w.Launch("server", "srv", func(n Node) error {
		n.Registry().Declare("x", int32(0))
		n.Listen(6)
		handleErr = n.Handle(60)
		return nil
	})
	w.Launch("client", "cli", func(n Node) error {
		n.Registry().Declare("x", int32(0))
		n.Sleep(0.01)
		s, _ := n.Client("srv", 6)
		return n.Send(s, "x", int32(5))
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if handleErr == nil || !strings.Contains(handleErr.Error(), "no callback") {
		t.Errorf("Handle = %v, want no-callback error", handleErr)
	}
}

func TestBenchAdvancesVirtualClock(t *testing.T) {
	w := NewWorld(grasPlatform(t), exact())
	w.BenchScale = 1000 // amplify the tiny real duration
	var before, after float64
	w.Launch("worker", "srv", func(n Node) error {
		before = n.Clock()
		_, err := n.Bench(func() {
			s := 0
			for i := 0; i < 100000; i++ {
				s += i
			}
			_ = s
		})
		after = n.Clock()
		return err
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after <= before {
		t.Errorf("Bench did not advance virtual time (%g -> %g)", before, after)
	}
}

func TestLaunchUnknownHost(t *testing.T) {
	w := NewWorld(grasPlatform(t), exact())
	if err := w.Launch("x", "ghost", func(Node) error { return nil }); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestNodeErrorUnknownAgent(t *testing.T) {
	w := NewWorld(grasPlatform(t), exact())
	if err := w.NodeError("nobody"); err == nil {
		t.Error("unknown agent lookup succeeded")
	}
}

func TestWorldAccessors(t *testing.T) {
	pf := grasPlatform(t)
	w := NewWorld(pf, exact())
	if w.Platform() != pf || w.Engine() == nil || w.Registry() == nil {
		t.Error("accessors wrong")
	}
}

func TestRealNodeRecvTimeout(t *testing.T) {
	n := NewRealNode("t", ArchX86, nil)
	defer n.Close()
	if _, err := n.Recv("x", 0.05); !errors.Is(err, ErrTimeout) {
		t.Errorf("Recv = %v, want ErrTimeout", err)
	}
}

func TestRealNodeRefused(t *testing.T) {
	n := NewRealNode("t", ArchX86, nil)
	defer n.Close()
	if _, err := n.ClientAddr("127.0.0.1:1"); !errors.Is(err, ErrRefused) {
		t.Errorf("ClientAddr = %v, want ErrRefused", err)
	}
}

func TestRealNodeBenchRuns(t *testing.T) {
	n := NewRealNode("t", ArchX86, nil)
	defer n.Close()
	ran := false
	dt, err := n.Bench(func() { ran = true })
	if err != nil || !ran || dt < 0 {
		t.Errorf("Bench: ran=%v dt=%g err=%v", ran, dt, err)
	}
}

// realPair starts a listening server and a client connected to it.
func realPair(t *testing.T) (server, client *RealNode, sock *Socket) {
	t.Helper()
	reg := NewRegistry()
	server = NewRealNode("server", ArchX86, reg)
	t.Cleanup(server.Close)
	client = NewRealNode("client", ArchSparc, reg)
	t.Cleanup(client.Close)
	if err := server.Listen(0); err != nil {
		t.Fatal(err)
	}
	sock, err := client.ClientAddr(server.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	return server, client, sock
}

// A burst larger than the inbox is delivered whole and in order: a
// full inbox holds the reader back instead of dropping frames.
func TestRealNodeBurstKeepsEveryMessage(t *testing.T) {
	server, client, sock := realPair(t)
	server.Registry().Declare("n", int32(0))
	const burst = 200
	for i := 0; i < burst; i++ {
		if err := client.Send(sock, "n", int32(i)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Let the reader fill the inbox, then give it time to reach the rest
	// of the burst: a reader that drops on overflow discards it here.
	for deadline := time.Now().Add(5 * time.Second); len(server.inbox) < cap(server.inbox); {
		if time.Now().After(deadline) {
			t.Fatalf("inbox holds %d frames, want %d", len(server.inbox), cap(server.inbox))
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < burst; i++ {
		m, err := server.Recv("n", 5)
		if err != nil {
			t.Fatalf("Recv #%d: %v", i, err)
		}
		if got := m.Payload.(int32); got != int32(i) {
			t.Fatalf("Recv #%d = %d, want %d", i, got, i)
		}
	}
}

// Recv takes the first message of the asked type, past older ones of
// other types, which stay for a later Recv.
func TestRealNodeTypedRecv(t *testing.T) {
	server, client, sock := realPair(t)
	server.Registry().Declare("a", int32(0))
	server.Registry().Declare("b", "")
	if err := client.Send(sock, "b", "first"); err != nil {
		t.Fatal(err)
	}
	if err := client.Send(sock, "a", int32(2)); err != nil {
		t.Fatal(err)
	}
	m, err := server.Recv("a", 5)
	if err != nil || m.Type != "a" || m.Payload.(int32) != 2 {
		t.Fatalf("Recv(a) = %+v, %v; want a(2)", m, err)
	}
	m, err = server.Recv("", 5)
	if err != nil || m.Type != "b" || m.Payload.(string) != "first" {
		t.Fatalf("Recv(\"\") = %+v, %v; want b(first)", m, err)
	}
}
