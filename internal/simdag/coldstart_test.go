package simdag

import (
	"runtime"
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
