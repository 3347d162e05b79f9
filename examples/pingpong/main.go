// GRAS ping-pong: the paper's client/server example written ONCE and
// run either inside the simulator or over real TCP — the same
// application code in both modes ("unmodified code run in simulation
// mode or in real-world mode").
//
//	go run ./examples/pingpong -mode sim
//	go run ./examples/pingpong -mode real
//	go run ./examples/pingpong -mode chain
//
// -mode chain is the simulation-only declarative rewrite: the same
// exchange expressed as two activity chains the kernel executes
// directly, spawning zero goroutines — the processless form that
// scales to millions of such agents.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/gras"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/surf"
)

const port = 4000

// declare registers the two message types (gras_msgtype_declare).
func declare(n gras.Node) {
	n.Registry().Declare("ping", int32(0))
	n.Registry().Declare("pong", int32(0))
}

// server is the paper's server(): register a callback for "ping",
// open the socket, handle one message.
func server(n gras.Node) error {
	declare(n)
	n.RegisterCB("ping", func(n gras.Node, m *gras.Msg) error {
		got := m.Payload.(int32)
		fmt.Printf("[%8.4fs] %s: ping(%d) received, ponging back\n",
			n.Clock(), n.Name(), got)
		// Some computation whose duration should be simulated
		// (GRAS_BENCH_ALWAYS_BEGIN/END).
		if _, err := n.Bench(func() {
			s := 0
			for i := 0; i < 1_000_000; i++ {
				s += i
			}
			_ = s
		}); err != nil {
			return err
		}
		return n.Send(m.Reply, "pong", -got)
	})
	if err := n.Listen(port); err != nil {
		return err
	}
	return n.Handle(600) // wait for next message (up to 600 s) and handle it
}

// client is the paper's client(): sleep for server startup, connect,
// ping, wait for pong.
func client(serverHost string) func(gras.Node) error {
	return func(n gras.Node) error {
		declare(n)
		n.Sleep(1) // wait for the server startup (gras_os_sleep)
		peer, err := n.Client(serverHost, port)
		if err != nil {
			return err
		}
		ping := int32(1234)
		if err := n.Send(peer, "ping", ping); err != nil {
			return err
		}
		fmt.Printf("[%8.4fs] %s: ping(%d) sent\n", n.Clock(), n.Name(), ping)
		msg, err := n.Recv("pong", 60)
		if err != nil {
			return err
		}
		fmt.Printf("[%8.4fs] %s: pong(%d) received\n", n.Clock(), n.Name(), msg.Payload.(int32))
		return nil
	}
}

func main() {
	mode := flag.String("mode", "sim", "sim | real")
	flag.Parse()

	switch *mode {
	case "sim":
		runSim()
	case "real":
		runReal()
	case "chain":
		runChain()
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// pingpongPlatform is the WAN-like two-host world shared by the sim
// and chain modes.
func pingpongPlatform() *platform.Platform {
	pf := platform.New()
	must(pf.AddHost(&platform.Host{Name: "cli", Power: 1e9,
		Properties: map[string]string{"arch": "sparc"}}))
	must(pf.AddHost(&platform.Host{Name: "srv", Power: 1e9,
		Properties: map[string]string{"arch": "x86"}}))
	must(pf.AddRoute("cli", "srv", []*platform.Link{
		{Name: "wan", Bandwidth: 1.25e6, Latency: 0.05},
	}))
	return pf
}

// runChain is the same exchange as runSim, written declaratively: the
// control flow (sleep, send, receive, compute, reply) becomes a chain
// description the kernel advances via completion callbacks. No process
// bodies, no goroutines — note the spawn counter printed at the end.
func runChain() {
	const (
		pingChannel = 1
		pongChannel = 2
	)
	env := msg.NewEnvironment(pingpongPlatform(), surf.DefaultConfig())
	exitErrs := map[string]error{}

	serverSpec := msg.NewChain().
		Get(pingChannel).
		Do(func(c *msg.ChainProc) {
			fmt.Printf("[%8.4fs] %s: ping(%d) received, ponging back\n",
				c.Now(), c.Name(), c.Task().Data.(int32))
		}).
		// The benched computation of the GRAS server, as explicit flops.
		Compute("bench", 2e6).
		Do(func(c *msg.ChainProc) {
			t := msg.NewTask("pong", 0, 64)
			t.Data = -c.Task().Data.(int32)
			c.SetTask(t)
		}).
		PutReg("cli", pongChannel).
		MustBuild()

	ping := int32(1234)
	clientSpec := msg.NewChain().
		Sleep(1). // wait for the server startup
		Do(func(c *msg.ChainProc) {
			t := msg.NewTask("ping", 0, 64)
			t.Data = ping
			c.SetTask(t)
		}).
		PutReg("srv", pingChannel).
		Do(func(c *msg.ChainProc) {
			fmt.Printf("[%8.4fs] %s: ping(%d) sent\n", c.Now(), c.Name(), ping)
		}).
		Get(pongChannel).
		Do(func(c *msg.ChainProc) {
			fmt.Printf("[%8.4fs] %s: pong(%d) received\n",
				c.Now(), c.Name(), c.Task().Data.(int32))
		}).
		MustBuild()

	for _, agent := range []struct {
		name, host string
		spec       *msg.Chain
	}{{"server", "srv", serverSpec}, {"client", "cli", clientSpec}} {
		agent := agent
		_, err := env.StartChain(agent.name, agent.host, agent.spec,
			&msg.ChainConfig{OnExit: func(err error) { exitErrs[agent.name] = err }})
		must(err)
	}
	must(env.Run())
	for _, agent := range []string{"server", "client"} {
		if err := exitErrs[agent]; err != nil {
			log.Fatalf("%s failed: %v", agent, err)
		}
	}
	fmt.Printf("chain mode done at virtual t=%.4f s (%d goroutines spawned)\n",
		env.Now(), env.Engine().GoroutineSpawns())
}

// runSim executes both agents inside the simulator, on a WAN-like link,
// with the client on sparc and the server on x86 (payloads are
// converted across endianness by the NDR wire format).
func runSim() {
	w := gras.NewWorld(pingpongPlatform(), surf.DefaultConfig())
	must(w.Launch("server", "srv", server))
	must(w.Launch("client", "cli", client("srv")))
	must(w.Run())
	for _, agent := range []string{"server", "client"} {
		if err := w.NodeError(agent); err != nil {
			log.Fatalf("%s failed: %v", agent, err)
		}
	}
	fmt.Printf("simulation mode done at virtual t=%.4f s\n", w.Now())
}

// runReal executes the SAME functions over loopback TCP.
func runReal() {
	reg := gras.NewRegistry()
	srv := gras.NewRealNode("server", gras.ArchX86, reg)
	defer srv.Close()
	cli := gras.NewRealNode("client", gras.ArchX86, reg)
	defer cli.Close()

	errc := make(chan error, 1)
	go func() { errc <- server(srv) }()

	if err := client("127.0.0.1")(cli); err != nil {
		log.Fatalf("client failed: %v", err)
	}
	if err := <-errc; err != nil {
		log.Fatalf("server failed: %v", err)
	}
	fmt.Printf("real-world mode done in %.4f s of wall time\n", cli.Clock())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
