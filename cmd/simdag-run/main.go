// simdag-run loads a workflow file (Pegasus DAX or GraphViz DOT),
// schedules it on a platform with a list scheduler, and executes it on
// the simulation kernel — the reproduction's equivalent of a SimDag
// binary, and the zero-goroutine path: however large the workflow, no
// process is spawned.
//
// The platform comes from a JSON file (-platform) or a seeded Waxman
// random topology (-waxman N), matching the paper's BRITE-generated
// validation platforms. Without a workflow file, a seeded random
// layered DAG is generated (-layers/-width).
//
// Examples:
//
//	go run ./cmd/simdag-run -dax testdata/sample.dax -waxman 8
//	go run ./cmd/simdag-run -layers 12 -width 40 -waxman 16 -sched rr
//	go run ./cmd/simdag-run -dot wf.dot -platform cluster.json -gantt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/gantt"
	"repro/internal/instr"
	"repro/internal/platform"
	"repro/internal/simdag"
	"repro/internal/surf"
)

func main() {
	daxPath := flag.String("dax", "", "Pegasus DAX workflow file")
	dotPath := flag.String("dot", "", "GraphViz DOT workflow file")
	platformPath := flag.String("platform", "", "platform JSON file")
	waxman := flag.Int("waxman", 0, "generate a Waxman platform with N nodes instead")
	seed := flag.Int64("seed", 42, "seed for the Waxman platform and the random DAG")
	layers := flag.Int("layers", 10, "random DAG: layers (when no workflow file is given)")
	width := flag.Int("width", 20, "random DAG: tasks per layer")
	sched := flag.String("sched", "minmin", "scheduler: minmin, rr (round-robin), or heft")
	showGantt := flag.Bool("gantt", false, "print a labeled per-host Gantt chart")
	ganttWidth := flag.Int("gantt-width", 100, "gantt width in columns")
	verbose := flag.Bool("v", false, "print the per-task schedule table")
	tracePath := flag.String("trace", "", "write a Paje trace of the run to this file")
	statsPath := flag.String("stats", "",
		`write a metrics-registry JSON snapshot to this file ("-" = stdout)`)
	profile := flag.Bool("profile", false,
		"print a wall-clock kernel phase profile after the run (report-only; host clock)")
	flag.Parse()

	var pf *platform.Platform
	var err error
	switch {
	case *platformPath != "":
		pf, err = platform.LoadFile(*platformPath)
	case *waxman > 1:
		pf, err = platform.GenerateWaxman(platform.DefaultWaxmanConfig(*waxman, *seed))
	default:
		err = fmt.Errorf("need -platform or -waxman")
	}
	if err != nil {
		log.Fatalf("platform: %v", err)
	}

	sim := simdag.New(pf, surf.DefaultConfig())
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		sim.EnableTrace(instr.NewTrace(traceFile))
	}
	var prof *instr.Profiler
	if *profile {
		prof = instr.NewProfiler()
		sim.Engine().SetProfiler(prof)
	}
	var tasks []*simdag.Task
	switch {
	case *daxPath != "":
		f, err := os.Open(*daxPath)
		if err != nil {
			log.Fatal(err)
		}
		tasks, err = simdag.LoadDAX(sim, f)
		f.Close()
		if err != nil {
			log.Fatalf("loading DAX: %v", err)
		}
		fmt.Printf("loaded DAX %s: %d tasks\n", *daxPath, len(tasks))
	case *dotPath != "":
		f, err := os.Open(*dotPath)
		if err != nil {
			log.Fatal(err)
		}
		tasks, err = simdag.LoadDOT(sim, f)
		f.Close()
		if err != nil {
			log.Fatalf("loading DOT: %v", err)
		}
		fmt.Printf("loaded DOT %s: %d tasks\n", *dotPath, len(tasks))
	default:
		tasks, err = simdag.RandomLayered(sim, simdag.DefaultRandomConfig(*layers, *width, *seed))
		if err != nil {
			log.Fatalf("generating DAG: %v", err)
		}
		fmt.Printf("generated layered DAG: %d tasks (%d×%d computes + transfers)\n",
			len(tasks), *layers, *width)
	}

	var hosts []string
	for _, h := range pf.Hosts() {
		hosts = append(hosts, h.Name)
	}
	switch run := simdag.Scheduler(*sched); {
	case run == nil:
		err = fmt.Errorf("unknown scheduler %q", *sched)
	case *sched == "heft": // same placement, with the analysis line
		var st *simdag.HEFTStats
		st, err = simdag.ScheduleHEFTStats(sim, hosts, nil)
		if err == nil {
			fmt.Printf("heft: critical path %.4f, planned makespan %.4f, max parallelism %d\n",
				st.CriticalPath, st.PlannedMakespan, st.MaxParallelism)
		}
	default:
		err = run(sim, hosts)
	}
	if err != nil {
		log.Fatalf("scheduling: %v", err)
	}

	if _, err := sim.Simulate(); err != nil {
		log.Fatalf("simulate: %v", err)
	}

	if traceFile != nil {
		if err := sim.Trace().Close(); err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			log.Fatalf("trace: %v", err)
		}
	}
	if *statsPath != "" {
		r := instr.NewRegistry()
		sim.MetricsInto(r)
		out := os.Stdout
		if *statsPath != "-" {
			out, err = os.Create(*statsPath)
			if err != nil {
				log.Fatalf("stats: %v", err)
			}
			defer out.Close()
		}
		if err := r.WriteJSON(out); err != nil {
			log.Fatalf("stats: %v", err)
		}
	}
	if prof != nil {
		if err := prof.WriteReport(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if *verbose {
		fmt.Printf("%-28s %-8s %-14s %12s %12s  %s\n", "TASK", "KIND", "PLACEMENT", "START", "FINISH", "STATE")
		for _, t := range sim.Tasks() {
			place := t.Host()
			if t.Kind() == simdag.Comm {
				src, dst := t.Endpoints()
				place = src + "->" + dst
			}
			fmt.Printf("%-28s %-8s %-14s %12.6f %12.6f  %s\n",
				t.Name(), t.Kind(), place, t.Start(), t.Finish(), t.State())
		}
	}

	fmt.Printf("tasks: %d done, %d failed, %d left unscheduled\n",
		sim.DoneCount(), sim.FailedCount(), len(sim.Tasks())-sim.DoneCount()-sim.FailedCount())
	fmt.Printf("makespan: %.6f s   (scheduler %s, %d hosts, process goroutines spawned: %d)\n",
		sim.Makespan(), *sched, len(hosts), sim.Engine().Spawned())

	if *showGantt {
		fmt.Println("\nper-host schedule (labels are task names; =: transfers, #: computations):")
		chart := gantt.FromTasks(sim.Tasks())
		if err := chart.RenderLabeled(os.Stdout, *ganttWidth); err != nil {
			log.Fatal(err)
		}
		busy := make(map[string]float64)
		for _, tr := range chart.Tracks() {
			tot := chart.TotalByKind(tr)
			busy[tr] = tot[gantt.Compute] + tot[gantt.Comm]
		}
		var tracks []string
		for tr := range busy {
			tracks = append(tracks, tr)
		}
		sort.Strings(tracks)
		fmt.Println("\nper-host busy time (s):")
		for _, tr := range tracks {
			fmt.Printf("  %-12s %8.4f\n", tr, busy[tr])
		}
	}
	if sim.FailedCount() > 0 {
		os.Exit(1)
	}
}
