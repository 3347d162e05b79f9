// dagsched demonstrates the SimDag interface: the same seeded random
// workflow is scheduled on the same BRITE-like random platform with
// two list schedulers — round-robin and min-min — and the makespans
// are compared. This is exactly the experiment shape the paper names
// for SimDag ("evaluation of scheduling heuristics for task graphs"),
// and the whole thing runs without spawning a single process
// goroutine: DAG tasks live entirely in the simulation kernel.
//
//	go run ./examples/dagsched [-layers 8] [-width 12] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/gantt"
	"repro/internal/platform"
	"repro/internal/simdag"
	"repro/internal/surf"
)

func main() {
	layers := flag.Int("layers", 8, "workflow layers")
	width := flag.Int("width", 12, "tasks per layer")
	nodes := flag.Int("nodes", 6, "Waxman platform nodes")
	seed := flag.Int64("seed", 7, "seed for platform and workflow")
	chart := flag.Bool("gantt", false, "render the min-min schedule")
	flag.Parse()

	run := func(schedule func(*simdag.Simulation, []string) error) (*simdag.Simulation, error) {
		pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(*nodes, *seed))
		if err != nil {
			return nil, err
		}
		sim := simdag.New(pf, surf.DefaultConfig())
		if _, err := simdag.RandomLayered(sim, simdag.DefaultRandomConfig(*layers, *width, *seed+1)); err != nil {
			return nil, err
		}
		var hosts []string
		for _, h := range pf.Hosts() {
			hosts = append(hosts, h.Name)
		}
		if err := schedule(sim, hosts); err != nil {
			return nil, err
		}
		if _, err := sim.Simulate(); err != nil {
			return nil, err
		}
		if sim.FailedCount() > 0 || sim.DoneCount() != len(sim.Tasks()) {
			return nil, fmt.Errorf("run incomplete: %d done, %d failed of %d",
				sim.DoneCount(), sim.FailedCount(), len(sim.Tasks()))
		}
		return sim, nil
	}

	rr, err := run(simdag.ScheduleRoundRobin)
	if err != nil {
		log.Fatal(err)
	}
	mm, err := run(simdag.ScheduleMinMin)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workflow: %d tasks on %d hosts (seed %d)\n",
		len(mm.Tasks()), *nodes, *seed)
	fmt.Printf("round-robin makespan: %10.4f s\n", rr.Makespan())
	fmt.Printf("min-min makespan:     %10.4f s   (%.1f%% of round-robin)\n",
		mm.Makespan(), 100*mm.Makespan()/rr.Makespan())
	fmt.Printf("process goroutines spawned: %d + %d\n",
		rr.Engine().Spawned(), mm.Engine().Spawned())

	if *chart {
		fmt.Println("\nmin-min schedule (one row per host, task-name labels):")
		if err := gantt.FromTasks(mm.Tasks()).RenderLabeled(os.Stdout, 100); err != nil {
			log.Fatal(err)
		}
	}
}
