// ganttgen regenerates the paper's Gantt chart figure (E3): the MSG
// client/server example with 2 servers and 3 clients; dark portions
// (#) are computations, light portions (=) communications, dots are
// receive waits. Concurrent transfers share the network links, so the
// communications visibly stretch when they interfere. The run is
// traced in memory and the chart rendered from the trace's process
// activity states — the same path -paje takes for a trace file.
//
// With -dag the chart switches to the SimDag view: a seeded random
// workflow scheduled by min-min, one row per host, each span labeled
// with its task name.
//
// With -paje FILE the chart is instead reconstructed from a Paje trace
// written by simgrid-run/simdag-run -trace: process activity states
// (PSTATE compute/put/get), task running spans (TSTATE), and resource
// downtime (STATE down) become one Gantt row per traced container.
//
//	go run ./cmd/ganttgen [-width 100] [-dag [-seed 3]] [-paje run.paje]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/gantt"
	"repro/internal/instr"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/simdag"
	"repro/internal/surf"
)

const (
	dataChannel = 22
	ackChannel  = 23
)

func main() {
	width := flag.Int("width", 100, "chart width in columns")
	rounds := flag.Int("rounds", 3, "requests per client")
	dag := flag.Bool("dag", false, "render a SimDag workflow schedule instead (one row per host)")
	seed := flag.Int64("seed", 3, "seed for the -dag workflow and platform")
	paje := flag.String("paje", "", "render a Paje trace file (written by -trace) instead")
	flag.Parse()

	if *paje != "" {
		renderPaje(*paje, *width)
		return
	}
	if *dag {
		renderDAG(*width, *seed)
		return
	}

	// The poster's platform: clients behind a hub, servers across a
	// router — a shared backbone all transfers compete on.
	pf := platform.New()
	servers := []string{"server1", "server2"}
	clients := []string{"client1", "client2", "client3"}
	must(pf.AddRouter("hub"))
	must(pf.AddRouter("router"))
	for _, c := range clients {
		must(pf.AddHost(&platform.Host{Name: c, Power: 1e9}))
		must(pf.Connect(c, "hub", &platform.Link{
			Name: "lan-" + c, Bandwidth: 1.25e7, Latency: 0.0001}))
	}
	must(pf.Connect("hub", "router", &platform.Link{
		Name: "backbone", Bandwidth: 1.25e6, Latency: 0.005}))
	for _, s := range servers {
		must(pf.AddHost(&platform.Host{Name: s, Power: 1e9}))
		must(pf.Connect("router", s, &platform.Link{
			Name: "lan-" + s, Bandwidth: 1.25e7, Latency: 0.0001}))
	}
	must(pf.ComputeRoutes())

	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	var traced bytes.Buffer
	env.EnableTrace(instr.NewTrace(&traced))

	for _, s := range servers {
		_, err := env.NewProcess(s, s, func(p *msg.Process) error {
			p.Daemonize()
			for {
				task, err := p.Get(dataChannel)
				if err != nil {
					return err
				}
				if err := p.Execute(task); err != nil {
					return err
				}
				ack := msg.NewTask("Ack", 0, 0.01e6)
				if err := p.Put(ack, task.Source().Name, ackChannel); err != nil {
					return err
				}
			}
		})
		must(err)
	}
	for i, c := range clients {
		server := servers[i%len(servers)]
		_, err := env.NewProcess(c, c, func(p *msg.Process) error {
			for r := 0; r < *rounds; r++ {
				remote := msg.NewTask("Remote", 30e6, 3.2e6)
				if err := p.Put(remote, server, dataChannel); err != nil {
					return err
				}
				local := msg.NewTask("Local", 10.5e6, 3.2e6)
				if err := p.Execute(local); err != nil {
					return err
				}
				if _, err := p.Get(ackChannel); err != nil {
					return err
				}
			}
			return nil
		})
		must(err)
	}

	must(env.Run())
	must(env.Trace().Close())
	td, err := instr.ReadTrace(&traced)
	must(err)
	chart := gantt.FromTrace(td, "PSTATE")

	fmt.Printf("Gantt chart for %d clients × %d rounds against %d servers "+
		"(ends at t=%.3f s)\n", len(clients), *rounds, len(servers), env.Now())
	fmt.Println("dark (#): computation   light (=): communication   dots (.): waiting")
	fmt.Println()
	must(chart.Render(os.Stdout, *width))

	fmt.Println("\nper-track totals (seconds):")
	for _, tr := range chart.Tracks() {
		tot := chart.TotalByKind(tr)
		fmt.Printf("  %-9s compute %6.3f   comm %6.3f   wait %6.3f\n",
			tr, tot[gantt.Compute], tot[gantt.Comm], tot[gantt.Wait])
	}
}

// renderDAG draws the SimDag schedule view: a seeded random workflow,
// min-min placed on a seeded Waxman platform, one Gantt row per host
// with task-name labels inside the spans.
func renderDAG(width int, seed int64) {
	pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(5, seed))
	must(err)
	sim := simdag.New(pf, surf.DefaultConfig())
	tasks, err := simdag.RandomLayered(sim, simdag.DefaultRandomConfig(6, 6, seed+1))
	must(err)
	var hosts []string
	for _, h := range pf.Hosts() {
		hosts = append(hosts, h.Name)
	}
	must(simdag.ScheduleMinMin(sim, hosts))
	_, err = sim.Simulate()
	must(err)

	fmt.Printf("SimDag schedule: %d tasks min-min-placed on %d hosts "+
		"(makespan %.3f s, %d goroutines spawned)\n",
		len(tasks), len(hosts), sim.Makespan(), sim.Engine().Spawned())
	fmt.Println("dark (#): computation   light (=): communication   labels: task names")
	fmt.Println()
	must(gantt.FromTasks(sim.Tasks()).RenderLabeled(os.Stdout, width))
}

// renderPaje reconstructs a Gantt chart from a Paje trace file: every
// activity interval the trace recorded lands on its container's row —
// process activities (PSTATE), task running spans (TSTATE), and
// resource downtime (STATE down).
func renderPaje(path string, width int) {
	f, err := os.Open(path)
	must(err)
	defer f.Close()
	td, err := instr.ReadTrace(f)
	must(err)
	chart := gantt.FromTrace(td, "PSTATE", "TSTATE", "STATE")

	fmt.Printf("Paje trace %s: %d containers, %d intervals rendered, %d message links "+
		"(ends at t=%.3f s)\n", path, len(td.Containers), len(chart.Intervals()), len(td.Links), td.EndTime)
	fmt.Println("dark (#): computation   light (=): communication   dots (.): waiting/down")
	fmt.Println()
	must(chart.Render(os.Stdout, width))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
