// Master/worker on a commodity cluster — the paper's first target
// application class ("a parallel linear system solver on a commodity
// cluster"). A master distributes a bag of compute tasks to workers
// over a shared switch, collecting results; the run prints per-worker
// statistics and a Gantt chart of the execution.
//
// With -churn the run becomes a fault-tolerance demo: a seeded failure
// campaign (internal/faults) takes worker hosts down and up mid-run,
// workers auto-restart on host recovery, and the master re-dispatches
// unacknowledged jobs with bounded retries — the bag still completes,
// and the whole run (including the failure log) is deterministic in
// the seed.
//
//	go run ./examples/masterworker [-workers N] [-tasks T] [-churn] [-seed S]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/faults"
	"repro/internal/gantt"
	"repro/internal/instr"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/surf"
)

const (
	workChannel   = 1
	resultChannel = 2
)

func main() {
	workers := flag.Int("workers", 4, "number of worker hosts")
	tasks := flag.Int("tasks", 16, "number of tasks in the bag")
	churn := flag.Bool("churn", false, "inject worker-host failures and survive them")
	seed := flag.Int64("seed", 42, "failure-campaign seed (with -churn)")
	flag.Parse()

	pf := platform.New()
	must(pf.AddRouter("switch"))
	must(pf.AddHost(&platform.Host{Name: "master", Power: 1e9}))
	must(pf.Connect("master", "switch",
		&platform.Link{Name: "eth-master", Bandwidth: 1.25e8, Latency: 5e-5}))
	workerNames := make([]string, *workers)
	for i := range workerNames {
		// Heterogeneous workers: power alternates 1 / 1.5 Gflop/s.
		name := fmt.Sprintf("worker%d", i)
		workerNames[i] = name
		power := 1e9
		if i%2 == 1 {
			power = 1.5e9
		}
		must(pf.AddHost(&platform.Host{Name: name, Power: power}))
		must(pf.Connect(name, "switch",
			&platform.Link{Name: "eth-" + name, Bandwidth: 1.25e8, Latency: 5e-5}))
	}
	must(pf.ComputeRoutes())

	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	var traced bytes.Buffer // the chart below is rendered from the run's trace
	env.EnableTrace(instr.NewTrace(&traced))

	done := make(map[string]int)

	// The worker loop is declarative: one immutable chain description
	// shared by every worker, executed by the kernel itself — no
	// goroutine per worker. The master side below stays goroutine-based
	// (its control flow re-dispatches, deduplicates, retries — exactly
	// the irregular logic chains are not for), which is the intended
	// hybrid: chains for the regular hot loop, processes for the brains.
	workerSpec := msg.NewChain().
		Loop(0).
		Get(workChannel).
		StopIf(func(t *msg.Task) bool { return t.Data == "poison" }).
		ComputeTask().
		Do(func(c *msg.ChainProc) { done[c.Name()]++ }).
		PutTask(func(c *msg.ChainProc) *msg.Task {
			return msg.NewTask("result:"+c.Task().Name, 0, 1e4)
		}, "master", resultChannel).
		End().
		MustBuild()

	for _, wn := range workerNames {
		wn := wn
		var cfg *msg.ChainConfig
		if *churn {
			// Churn mode: workers are daemons (the master's completion
			// ends the run), die with their host, and re-arm on
			// recovery.
			cfg = &msg.ChainConfig{
				Daemon:      true,
				AutoRestart: true,
				OnFailure: func(error) {
					fmt.Printf("[%10.6f] %s: killed by host failure\n", env.Now(), wn)
				},
			}
		}
		_, err := env.StartChain(wn, wn, workerSpec, cfg)
		must(err)
	}

	if *churn {
		runChurn(env, workerNames, *tasks, *seed)
	} else {
		runFairWeather(env, workerNames, *tasks)
	}

	must(env.Run())

	fmt.Printf("bag of %d tasks on %d workers finished at t=%.4f s\n\n",
		*tasks, *workers, env.Now())
	for _, wn := range workerNames {
		fmt.Printf("  %-10s completed %2d tasks (host power %.1f Gflop/s)\n",
			wn, done[wn], pf.Host(wn).Power/1e9)
	}
	fmt.Println("\nGantt chart (# compute, = comm, . idle-wait):")
	must(env.Trace().Close())
	td, err := instr.ReadTrace(&traced)
	must(err)
	must(gantt.FromTrace(td, "PSTATE").Render(os.Stdout, 100))
}

// runFairWeather is the classic failure-free bag-of-tasks: rendezvous
// puts block until a worker picks each task up, so dispatching and
// result collection run as two processes on the master host.
func runFairWeather(env *msg.Environment, workerNames []string, tasks int) {
	_, err := env.NewProcess("dispatcher", "master", func(p *msg.Process) error {
		// Ship the bag round-robin: 250 MFlop + 1 MB input each.
		for i := 0; i < tasks; i++ {
			t := msg.NewTask(fmt.Sprintf("job%02d", i), 250e6, 1e6)
			if err := p.Put(t, workerNames[i%len(workerNames)], workChannel); err != nil {
				return err
			}
		}
		return nil
	})
	must(err)

	_, err = env.NewProcess("collector", "master", func(p *msg.Process) error {
		// Collect every result, then poison the workers.
		for i := 0; i < tasks; i++ {
			if _, err := p.Get(resultChannel); err != nil {
				return err
			}
		}
		for _, wn := range workerNames {
			t := msg.NewTask("stop", 0, 100)
			t.Data = "poison"
			if err := p.Put(t, wn, workChannel); err != nil {
				return err
			}
		}
		return nil
	})
	must(err)
}

// runChurn arms a seeded failure campaign over the worker hosts and
// runs a failure-aware master: every outstanding job is (re)dispatched
// with bounded per-attempt timeouts rotating over the workers, results
// are deduplicated by job name (a job can run twice when its first
// worker died after executing but before the master gave up waiting),
// and the loop repeats until the whole bag is acknowledged. No poison
// pills: workers are daemons and the run ends with the master.
func runChurn(env *msg.Environment, workerNames []string, tasks int, seed int64) {
	sched, err := faults.Compile(seed, faults.Params{
		Horizon: 8,
		Classes: []faults.Class{{Name: "workers", Hosts: workerNames, MTBF: 1.5, MTTR: 0.4}},
	})
	must(err)
	in, err := faults.Arm(sched, env.Model())
	must(err)
	in.OnEvent = func(ev faults.Event) {
		state := "down"
		if ev.Up {
			state = "up"
		}
		fmt.Printf("[%10.6f] fault: %s %s\n", env.Now(), ev.Name, state)
	}

	// Dispatcher and collector share the outstanding-job set: the kernel
	// interleaves them deterministically on one OS-level lockstep, so no
	// synchronization is needed. The run ends when both finish.
	remaining := make(map[string]bool, tasks)
	order := make([]string, 0, tasks)
	for i := 0; i < tasks; i++ {
		name := fmt.Sprintf("job%02d", i)
		remaining[name] = true
		order = append(order, name)
	}

	_, err = env.NewProcess("dispatcher", "master", func(p *msg.Process) error {
		rr := 0
		const maxRounds = 100
		for round := 0; len(remaining) > 0; round++ {
			if round == maxRounds {
				return fmt.Errorf("bag not finished after %d rounds, %d jobs left", maxRounds, len(remaining))
			}
			// Dispatch one copy of every unacknowledged job; a job no
			// worker accepts within the retry budget waits for the next
			// round. Duplicates are possible (a job's first worker may
			// die after executing but before its result lands) — the
			// collector deduplicates.
			for _, name := range order {
				if !remaining[name] {
					continue
				}
				name := name
				err := msg.Retry(p, msg.RetryPolicy{Attempts: 2 * len(workerNames), Backoff: 0.25}, func() error {
					wn := workerNames[rr%len(workerNames)]
					rr++
					return p.PutWithTimeout(msg.NewTask(name, 250e6, 1e6), wn, workChannel, 1.0)
				})
				if err != nil {
					fmt.Printf("[%10.6f] master: job %s undeliverable this round (%v)\n", p.Now(), name, err)
				}
			}
			if len(remaining) > 0 {
				// Give in-flight results a beat to land before re-shipping.
				if err := p.Sleep(1.0); err != nil {
					return err
				}
			}
		}
		return nil
	})
	must(err)

	_, err = env.NewProcess("collector", "master", func(p *msg.Process) error {
		dry := 0
		for len(remaining) > 0 {
			res, err := p.GetWithTimeout(resultChannel, 2.0)
			if err != nil {
				if dry++; dry == 60 {
					return fmt.Errorf("no result for %d collect timeouts, %d jobs left", dry, len(remaining))
				}
				continue
			}
			dry = 0
			delete(remaining, strings.TrimPrefix(res.Name, "result:"))
		}
		fmt.Printf("[%10.6f] master: all %d jobs acknowledged\n", p.Now(), tasks)
		return nil
	})
	must(err)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
