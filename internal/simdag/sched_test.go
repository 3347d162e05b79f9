package simdag

import (
	"testing"
	"unsafe"
)

// TestSchedulerPoolRepeatedName: a pool naming a host twice is the pool
// without the repeat. Min-min and HEFT key availability by name while
// the ptask pre-pass picks pool entries by index; unnormalised, the
// pre-pass hands the 2-slot ptask {h00, h00} and the call fails
// although {h00, h01} fits.
func TestSchedulerPoolRepeatedName(t *testing.T) {
	for _, name := range []string{"minmin", "heft", "rr"} {
		s := New(starPlatform(t, 2), exactConfig())
		p, err := s.NewParallelTask("p", []float64{1e9, 1e9}, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, b := s.NewTask("a", 1e9), s.NewTask("b", 1e9)
		if err := Scheduler(name)(s, []string{"h00", "h00", "h01"}); err != nil {
			t.Fatalf("%s over a pool with a repeated name: %v", name, err)
		}
		if hs := p.ParallelHosts(); len(hs) != 2 || hs[0] != "h00" || hs[1] != "h01" {
			t.Errorf("%s: ptask on %v, want [h00 h01]", name, hs)
		}
		if name == "rr" && (a.Host() != "h00" || b.Host() != "h01") {
			t.Errorf("rr: a on %s, b on %s, want h00, h01", a.Host(), b.Host())
		}
	}
}

// TestReschedulePolicyRepeatedName: the same pool as a reschedule
// policy. One host failure diverts the ptask; the pass must re-place it
// on the two distinct survivors instead of failing every unplaced task
// of the DAG as unplaceable.
func TestReschedulePolicyRepeatedName(t *testing.T) {
	s := New(starPlatform(t, 3), exactConfig())
	s.SetReschedulePolicy([]string{"h00", "h00", "h01", "h02"})
	p, err := s.NewParallelTask("p", []float64{2e9, 2e9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ScheduleParallel([]string{"h02", "h01"}); err != nil {
		t.Fatal(err)
	}
	c := s.NewTask("c", 1e9)
	if err := s.AddDependency(p, c); err != nil {
		t.Fatal(err)
	}
	if err := c.Schedule("h02"); err != nil {
		t.Fatal(err)
	}
	s.Engine().After(0.5, func() {
		if err := s.Model().FailHost("h02"); err != nil {
			t.Error(err)
		}
	})
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if s.DoneCount() != 2 || s.FailedCount() != 0 {
		t.Fatalf("done=%d failed=%d, want 2/0 (p: %v, c: %v)", s.DoneCount(), s.FailedCount(), p.Err(), c.Err())
	}
	if hs := p.ParallelHosts(); len(hs) != 2 || hs[0] != "h00" || hs[1] != "h01" {
		t.Errorf("ptask re-placed on %v, want [h00 h01]", hs)
	}
}

// TestMinMinAllocations pins the cost of a placement pass, not its
// result: on the campaign's 20×40 layered DAG min-min allocates a few
// tables and one row per ready-set slot — far fewer objects than tasks
// — where a per-round memo map costs several allocations per task. The
// per-pair route handles placeComms resolves belong to the model, so
// they are resolved before counting.
func TestMinMinAllocations(t *testing.T) {
	pf := campaignShapes(t)["waxman24"]
	var sims []*Simulation
	var hosts []string
	for i := 0; i < 2; i++ { // AllocsPerRun(1, …) calls twice: a warm-up and the measured run
		var s *Simulation
		s, hosts = campaignDAG(t, pf)
		for _, a := range hosts {
			for _, b := range hosts {
				if _, err := s.model.RouteHandle(a, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		sims = append(sims, s)
	}
	units := 0
	for _, tk := range sims[0].tasks {
		if tk.kind == Compute || tk.kind == Parallel {
			units++
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		if err := ScheduleMinMin(sims[next], hosts); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if limit := float64(units) / 2; allocs > limit {
		t.Fatalf("ScheduleMinMin: %.0f allocations for %d units, want ≤ %.0f", allocs, units, limit)
	}
	t.Logf("ScheduleMinMin: %.0f allocations for %d units", allocs, units)
}

// TestTaskSize: the schedulers address tasks by creation index, which
// shares a word with the in-degree scratch — a DAG of pre-placed tasks
// that never meets a scheduler pays nothing for it.
func TestTaskSize(t *testing.T) {
	if got, want := unsafe.Sizeof(Task{}), uintptr(320); got != want {
		t.Fatalf("Task is %d bytes, want %d", got, want)
	}
}
