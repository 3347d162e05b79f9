package faults

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"testing"

	"repro/internal/platform"
	"repro/internal/simdag"
	"repro/internal/surf"
)

// TestDAGSurvivesInjectedFailures is the tentpole acceptance run: a
// 1000-compute-task DAG (50 chains of 20, with a data transfer between
// consecutive stages) under an injected host-failure campaign, with the
// simdag reschedule policy recovering every victim onto surviving
// hosts. The run must complete with zero failed tasks — FailedCount
// only ever reflects genuinely unplaceable work, and with recoveries in
// the campaign the pool never empties.
func TestDAGSurvivesInjectedFailures(t *testing.T) {
	const (
		nHosts  = 8
		nChains = 50
		depth   = 20
	)
	pf := platform.New()
	if err := pf.AddRouter("sw"); err != nil {
		t.Fatal(err)
	}
	hosts := make([]string, nHosts)
	for i := 0; i < nHosts; i++ {
		h := "h" + strconv.Itoa(i)
		hosts[i] = h
		if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		if err := pf.Connect(h, "sw", &platform.Link{Name: "lan-" + h, Bandwidth: 1e8, Latency: 1e-4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}

	s := simdag.New(pf, surf.DefaultConfig())
	s.SetReschedulePolicy(hosts)
	var tasks []*simdag.Task
	for c := 0; c < nChains; c++ {
		var prev *simdag.Task
		for d := 0; d < depth; d++ {
			name := "c" + strconv.Itoa(c) + "-" + strconv.Itoa(d)
			task := s.NewTask(name, 1e9) // ~1 s per stage
			tasks = append(tasks, task)
			if prev != nil {
				x := s.NewCommTask(name+"-in", 1e7)
				tasks = append(tasks, x)
				if err := s.AddDependency(prev, x); err != nil {
					t.Fatal(err)
				}
				if err := s.AddDependency(x, task); err != nil {
					t.Fatal(err)
				}
			}
			prev = task
		}
	}
	if err := simdag.ScheduleRoundRobin(s, hosts); err != nil {
		t.Fatal(err)
	}

	// Two hosts churn through the first 60 simulated seconds (the DAG
	// needs ~140 s): with MTBF 25 each fails about twice, and every
	// failure recovers ~4 s later, so the pool always recovers.
	sched := mustCompile(t, 3, Params{
		Horizon: 60,
		Classes: []Class{{Name: "churn", Hosts: []string{"h1", "h3"}, MTBF: 25, MTTR: 4}},
	})
	in, err := Arm(sched, s.Model())
	if err != nil {
		t.Fatal(err)
	}
	var downs []float64
	in.OnEvent = func(ev Event) {
		if !ev.Up {
			downs = append(downs, ev.At)
		}
	}

	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if in.Applied() != sched.Len() {
		t.Fatalf("applied %d of %d scheduled events", in.Applied(), sched.Len())
	}
	midRun := 0
	for _, at := range downs {
		if at < s.Makespan() {
			midRun++
		}
	}
	if midRun < 1 {
		t.Fatalf("no host failure landed mid-run (makespan %g, downs %v): campaign needs retuning", s.Makespan(), downs)
	}
	if s.DoneCount() != len(tasks) || s.FailedCount() != 0 {
		t.Fatalf("done=%d failed=%d, want %d/0", s.DoneCount(), s.FailedCount(), len(tasks))
	}
	// Every task's name, final host and the Float64bits of its finish:
	// recoveries re-place victims, so this pins placement and timing.
	h := fnv.New64a()
	for _, task := range tasks {
		fmt.Fprintf(h, "%s@%s %016x\n", task.Name(), task.Host(), math.Float64bits(task.Finish()))
	}
	if got, want := h.Sum64(), uint64(0x2de26db3f2b48394); got != want {
		t.Errorf("task digest %#016x, want %#016x", got, want)
	}
	if g := s.Engine().Spawned(); g != 0 {
		t.Errorf("%d process goroutines spawned, want 0", g)
	}
	t.Logf("makespan %.3f s, %d injected events (%d mid-run failures)", s.Makespan(), in.Applied(), midRun)
}
