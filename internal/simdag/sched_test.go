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

// TestMinMinCommitBelowArrival: committing a task on the host that is
// the best of several other ready tasks, while the host's new
// availability stays below their inputs' arrival, leaves their ECT —
// and so their best host — unchanged. X (no inputs) lands first on
// the fast h02 and frees it at 1; Y and Z, waiting for the pre-placed
// P until 10, still finish there soonest at 11. Y takes h02 on the
// creation-order tie, after which Z is better off on h01 (11.5 < 12).
func TestMinMinCommitBelowArrival(t *testing.T) {
	build := func() (*Simulation, []*Task) {
		s := New(starPlatform(t, 3), exactConfig())
		p := s.NewTask("P", 3e10) // 10 s on h02
		if err := p.Schedule("h02"); err != nil {
			t.Fatal(err)
		}
		y, z, x := s.NewTask("Y", 3e9), s.NewTask("Z", 3e9), s.NewTask("X", 3e9)
		for _, c := range []*Task{y, z} {
			if err := s.AddDependency(p, c); err != nil {
				t.Fatal(err)
			}
		}
		return s, []*Task{x, y, z}
	}
	pool := []string{"h01", "h02"}
	s, live := build()
	if err := ScheduleMinMin(s, pool); err != nil {
		t.Fatal(err)
	}
	r, ref := build()
	if err := refScheduleMinMin(r, pool); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"h02", "h02", "h01"} {
		if got := live[i].Host(); got != want || ref[i].Host() != want {
			t.Errorf("%s on %s (reference %s), want %s", live[i].Name(), got, ref[i].Host(), want)
		}
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

// TestTaskSize pins the Task layout at 176 bytes (it was 320): kind,
// state, the watch flag and the wait count share one word, as do the
// creation index and the in-degree scratch; a compute's host and a
// comm's endpoints share one slot pair; a ptask's payload sits behind
// one pointer; trace aliases live in the trace band. A 320 KiB arena
// block thus holds 1861 tasks, a campaign DAG whole.
func TestTaskSize(t *testing.T) {
	if got, want := unsafe.Sizeof(Task{}), uintptr(176); got != want {
		t.Fatalf("Task is %d bytes, want %d", got, want)
	}
}
