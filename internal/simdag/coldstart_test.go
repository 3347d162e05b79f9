package simdag

import (
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/platform"
)

// TestColdStartAllocationBudget: n pre-placed chains, a computation on
// its own host then a transfer over its own link, all start at once on
// a fresh simulation, so no activity finds a recycled object. The run
// allocates no more than n/8 objects and a constant: actions, variables,
// edges and resources slices come from their owners' slabs, many to a
// chunk, and only the free lists and scratch arrays grow, each log2(n)
// times.
func TestColdStartAllocationBudget(t *testing.T) {
	const n = 1024
	pf := platform.New()
	for i := 0; i < n; i++ {
		is := strconv.Itoa(i)
		for _, h := range []string{"s" + is, "r" + is} {
			if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
				t.Fatal(err)
			}
		}
		l := &platform.Link{Name: "l" + is, Bandwidth: 1e8 * float64(1+i%7), Latency: 1e-4}
		if err := pf.AddRoute("s"+is, "r"+is, []*platform.Link{l}); err != nil {
			t.Fatal(err)
		}
	}
	s := New(pf, exactConfig())
	var tasks []*Task
	for i := 0; i < n; i++ {
		is := strconv.Itoa(i)
		c := s.NewTask("c"+is, 1e6*float64(1+i%3))
		x := s.NewCommTask("x"+is, 1e5*float64(1+i%5))
		if err := c.Schedule("s" + is); err != nil {
			t.Fatal(err)
		}
		if err := x.ScheduleComm("s"+is, "r"+is); err != nil {
			t.Fatal(err)
		}
		if err := s.AddDependency(c, x); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, c, x)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := s.Simulate()
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.State() != Done {
			t.Fatalf("%s ended %v", task.Name(), task.State())
		}
	}
	allocs, budget := m1.Mallocs-m0.Mallocs, uint64(n/8+256)
	t.Logf("%d objects, budget %d", allocs, budget)
	if allocs > budget {
		t.Errorf("running %d fresh chains allocated %d objects, budget %d", n, allocs, budget)
	}
}

// TestRandomLayeredAllocationBudget: generating a 20×80 layered DAG (a
// tenth of the members two-slot ptasks, a third of the edges carrying
// data) costs at most 0.05 allocations per task. Task names are carved
// from the simulation's byte slab and ptask payloads from the
// generator's slabs, many to a chunk; what is left is the task and edge
// arenas, the task slices' doubling and the random source. Layer and
// width indices stay below 100, where strconv.Itoa allocates nothing.
func TestRandomLayeredAllocationBudget(t *testing.T) {
	pf := starPlatform(t, 4)
	cfg := DefaultRandomConfig(20, 80, 3)
	cfg.PtaskProb, cfg.PtaskSlots = 0.1, 2
	sims := []*Simulation{New(pf, exactConfig()), New(pf, exactConfig())}
	var tasks []*Task
	allocs := testing.AllocsPerRun(1, func() {
		s := sims[0]
		sims = sims[1:]
		var err error
		if tasks, err = RandomLayered(s, cfg); err != nil {
			t.Fatal(err)
		}
	})
	perTask := allocs / float64(len(tasks))
	t.Logf("%v allocations for %d tasks: %.4f per task", allocs, len(tasks), perTask)
	if perTask > 0.05 {
		t.Errorf("RandomLayered made %.4f allocations per task (%v for %d), want at most 0.05", perTask, allocs, len(tasks))
	}
}

// TestScheduleParallelCarvesHostSets: placing 40 three-slot ptasks
// carves their host sets from one slab chunk instead of allocating one
// set each, and placing them again after unschedule reuses every set.
func TestScheduleParallelCarvesHostSets(t *testing.T) {
	s := New(starPlatform(t, 4), exactConfig())
	hosts := []string{hostName(0), hostName(1), hostName(2)}
	var ptasks []*Task
	for i := 0; i < 40; i++ {
		p, err := s.NewParallelTask("p"+strconv.Itoa(i), []float64{1e9, 1e9, 1e9}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ptasks = append(ptasks, p)
	}
	place := func() {
		for _, p := range ptasks {
			p.unschedule()
			if err := p.ScheduleParallel(hosts); err != nil {
				t.Fatal(err)
			}
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	place()
	runtime.ReadMemStats(&m1)
	if first := m1.Mallocs - m0.Mallocs; first > 1 {
		t.Errorf("first placement of %d ptasks: %d allocations, want at most 1 (one slab chunk)", len(ptasks), first)
	}
	if again := testing.AllocsPerRun(5, place); again != 0 {
		t.Errorf("re-placement after unschedule: %v allocations, want 0", again)
	}
	for _, p := range ptasks {
		if !slices.Equal(p.ParallelHosts(), hosts) {
			t.Fatalf("%s placed on %v, want %v", p.Name(), p.ParallelHosts(), hosts)
		}
	}
}
