package simdag

import (
	"errors"
	"math"
	"testing"
)

// Bit-identical equivalence between a degenerate ptask and the plain
// task it degenerates to. The amounts are picked float-exact on purpose
// (power-of-two ratios against the starPlatform's 1e9/2e9 powers and
// 1e8 links, zero latency, exactConfig): the two code paths compute
// duration as amount/rate vs 1/(rate/amount), which only agree to the
// bit when every division is exact. That is the point of the test — the
// seam is the same model, not a lookalike.

// TestPtaskEquivalenceCompute: a 1-slot ptask with no transfer is the
// compute task it wraps.
func TestPtaskEquivalenceCompute(t *testing.T) {
	run := func(parallel bool) (float64, float64) {
		s := New(starPlatform(t, 2), exactConfig())
		if parallel {
			p, err := s.NewParallelTask("P", []float64{4e9}, [][]float64{{0}})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.ScheduleParallel([]string{"h00"}); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := s.NewTask("P", 4e9).Schedule("h00"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Simulate(); err != nil {
			t.Fatal(err)
		}
		if s.DoneCount() != 1 {
			t.Fatalf("done=%d", s.DoneCount())
		}
		return s.Makespan(), float64(s.Engine().Spawned())
	}
	mkPair, _ := run(false)
	mkPtask, _ := run(true)
	if math.Float64bits(mkPair) != math.Float64bits(mkPtask) {
		t.Fatalf("makespans differ: compute %x (%g), ptask %x (%g)",
			math.Float64bits(mkPair), mkPair, math.Float64bits(mkPtask), mkPtask)
	}
}

// TestPtaskEquivalenceComm: a 2-slot zero-flop ptask moving bytes
// between its slots is the comm task over the same route.
func TestPtaskEquivalenceComm(t *testing.T) {
	run := func(parallel bool) float64 {
		s := New(starPlatform(t, 2), exactConfig())
		if parallel {
			p, err := s.NewParallelTask("X",
				[]float64{0, 0}, [][]float64{{0, 4e8}, {0, 0}})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.ScheduleParallel([]string{"h00", "h01"}); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := s.NewCommTask("X", 4e8).ScheduleComm("h00", "h01"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Simulate(); err != nil {
			t.Fatal(err)
		}
		if s.DoneCount() != 1 {
			t.Fatalf("done=%d", s.DoneCount())
		}
		return s.Makespan()
	}
	mkComm := run(false)
	mkPtask := run(true)
	if math.Float64bits(mkComm) != math.Float64bits(mkPtask) {
		t.Fatalf("makespans differ: comm %x (%g), ptask %x (%g)",
			math.Float64bits(mkComm), mkComm, math.Float64bits(mkPtask), mkPtask)
	}
}

// TestPtaskEquivalenceChain: the compute→comm→compute pipeline and its
// ptask transliteration produce bitwise-equal task finishes end to end
// (dependency release timing flows through the same kernel path).
func TestPtaskEquivalenceChain(t *testing.T) {
	type finishes struct{ a, x, b float64 }
	run := func(parallel bool) finishes {
		s := New(starPlatform(t, 2), exactConfig())
		var a, x, b *Task
		var err error
		if parallel {
			if a, err = s.NewParallelTask("A", []float64{2e9}, [][]float64{{0}}); err != nil {
				t.Fatal(err)
			}
			if x, err = s.NewParallelTask("X", []float64{0, 0}, [][]float64{{0, 4e8}, {0, 0}}); err != nil {
				t.Fatal(err)
			}
			if b, err = s.NewParallelTask("B", []float64{2e9}, [][]float64{{0}}); err != nil {
				t.Fatal(err)
			}
			must := func(e error) {
				if e != nil {
					t.Fatal(e)
				}
			}
			must(a.ScheduleParallel([]string{"h00"}))
			must(x.ScheduleParallel([]string{"h00", "h01"}))
			must(b.ScheduleParallel([]string{"h01"}))
		} else {
			a = s.NewTask("A", 2e9)
			x = s.NewCommTask("X", 4e8)
			b = s.NewTask("B", 2e9)
			must := func(e error) {
				if e != nil {
					t.Fatal(e)
				}
			}
			must(a.Schedule("h00"))
			must(x.ScheduleComm("h00", "h01"))
			must(b.Schedule("h01"))
		}
		if err := s.AddDependency(a, x); err != nil {
			t.Fatal(err)
		}
		if err := s.AddDependency(x, b); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Simulate(); err != nil {
			t.Fatal(err)
		}
		if s.DoneCount() != 3 {
			t.Fatalf("done=%d, want 3", s.DoneCount())
		}
		return finishes{a.Finish(), x.Finish(), b.Finish()}
	}
	pair := run(false)
	ptask := run(true)
	for _, c := range []struct {
		name       string
		pair, want float64
	}{{"A", ptask.a, pair.a}, {"X", ptask.x, pair.x}, {"B", ptask.b, pair.b}} {
		if math.Float64bits(c.pair) != math.Float64bits(c.want) {
			t.Errorf("%s finish differs: ptask %g, pair %g", c.name, c.pair, c.want)
		}
	}
	// Closed form: A [0,2] on h00 (1 Gflop/s), X [2,6] over the 1e8 B/s
	// links, B [6,7] on h01 (2 Gflop/s).
	if !near(ptask.b, 7) {
		t.Errorf("chain makespan = %g, want 7", ptask.b)
	}
}

// TestPtaskFailureCascade: a member host dying mid-ptask fails the
// whole coupled activity with ErrHostFailed and cancels its dependents.
func TestPtaskFailureCascade(t *testing.T) {
	s := New(starPlatform(t, 2), exactConfig())
	p, err := s.NewParallelTask("P", []float64{4e9, 4e9}, [][]float64{{0, 0}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ScheduleParallel([]string{"h00", "h01"}); err != nil {
		t.Fatal(err)
	}
	c := s.NewTask("C", 1e9)
	if err := c.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDependency(p, c); err != nil {
		t.Fatal(err)
	}
	s.Engine().After(1, func() {
		if err := s.Model().FailHost("h01"); err != nil {
			t.Error(err)
		}
	})
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if p.State() != Failed || !errors.Is(p.Err(), ErrHostFailed) {
		t.Fatalf("P state=%s err=%v, want Failed/ErrHostFailed", p.State(), p.Err())
	}
	if c.State() != Failed || !errors.Is(c.Err(), ErrDependencyFailed) {
		t.Fatalf("C state=%s err=%v, want Failed/ErrDependencyFailed", c.State(), c.Err())
	}
	if s.DoneCount() != 0 || s.FailedCount() != 2 {
		t.Fatalf("done=%d failed=%d, want 0/2", s.DoneCount(), s.FailedCount())
	}
}

// TestPtaskReschedule: under the reschedule policy the diverted ptask is
// re-placed on surviving hosts and the DAG completes with no failures.
func TestPtaskReschedule(t *testing.T) {
	s := New(starPlatform(t, 3), exactConfig())
	s.SetReschedulePolicy([]string{"h00", "h01", "h02"})
	p, err := s.NewParallelTask("P", []float64{4e9, 4e9}, [][]float64{{0, 0}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ScheduleParallel([]string{"h00", "h01"}); err != nil {
		t.Fatal(err)
	}
	c := s.NewTask("C", 1e9)
	if err := s.AddDependency(p, c); err != nil {
		t.Fatal(err)
	}
	if err := c.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	s.Engine().After(1, func() {
		if err := s.Model().FailHost("h01"); err != nil {
			t.Error(err)
		}
	})
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if s.FailedCount() != 0 || s.DoneCount() != 2 {
		t.Fatalf("done=%d failed=%d (P err: %v), want 2/0", s.DoneCount(), s.FailedCount(), p.Err())
	}
	if s.Reschedules() == 0 {
		t.Error("expected at least one reschedule")
	}
	for _, h := range p.ParallelHosts() {
		if h == "h01" {
			t.Fatalf("P re-placed onto the dead host: %v", p.ParallelHosts())
		}
	}
}

// TestPtaskUnplaceable: a ptask needing more distinct hosts than the
// policy has left fails with ErrUnplaceable without collapsing the rest
// of the pass.
func TestPtaskUnplaceable(t *testing.T) {
	s := New(starPlatform(t, 3), exactConfig())
	s.SetReschedulePolicy([]string{"h00", "h01", "h02"})
	p, err := s.NewParallelTask("P", []float64{4e9, 4e9, 4e9},
		[][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ScheduleParallel([]string{"h00", "h01", "h02"}); err != nil {
		t.Fatal(err)
	}
	q := s.NewTask("Q", 8e9) // independent survivor
	if err := q.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	s.Engine().After(1, func() {
		for _, h := range []string{"h01", "h02"} {
			if err := s.Model().FailHost(h); err != nil {
				t.Error(err)
			}
		}
	})
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if p.State() != Failed || !errors.Is(p.Err(), ErrUnplaceable) {
		t.Fatalf("P state=%s err=%v, want Failed/ErrUnplaceable", p.State(), p.Err())
	}
	if q.State() != Done {
		t.Fatalf("Q state=%s err=%v, want Done", q.State(), q.Err())
	}
}

// TestPtaskUnderListSchedulers: ptasks flow through both list
// schedulers' pre-pass and complete alongside computes and comms.
func TestPtaskUnderListSchedulers(t *testing.T) {
	for _, sched := range []struct {
		name string
		fn   func(*Simulation, []string) error
	}{{"minmin", ScheduleMinMin}, {"rr", ScheduleRoundRobin}, {"heft", ScheduleHEFT}} {
		t.Run(sched.name, func(t *testing.T) {
			s := New(starPlatform(t, 4), exactConfig())
			cfg := DefaultRandomConfig(4, 6, 11)
			cfg.PtaskProb = 0.3
			cfg.PtaskSlots = 2
			tasks, err := RandomLayered(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nPtask := 0
			for _, tk := range tasks {
				if tk.Kind() == Parallel {
					nPtask++
				}
			}
			if nPtask == 0 {
				t.Fatal("seed drew no ptasks; pick another seed")
			}
			hosts := []string{"h00", "h01", "h02", "h03"}
			if err := sched.fn(s, hosts); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Simulate(); err != nil {
				t.Fatal(err)
			}
			if s.FailedCount() != 0 || s.DoneCount() != len(tasks) {
				t.Fatalf("done=%d/%d failed=%d", s.DoneCount(), len(tasks), s.FailedCount())
			}
			if g := s.Engine().Spawned(); g != 0 {
				t.Fatalf("%d goroutines spawned, want 0", g)
			}
		})
	}
}

// TestNewParallelTaskRejectsBadPayloads: a flop or byte entry that is
// NaN, infinite or negative is refused at construction. Accepted, NaN
// flops ran as no work, +Inf flops left the task Running after
// Simulate returned, and bad bytes were treated as no transfer.
func TestNewParallelTaskRejectsBadPayloads(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name  string
		flops []float64
		bytes [][]float64
	}{
		{"nan-flops", []float64{nan, 1e9}, nil},
		{"inf-flops", []float64{1e9, inf}, nil},
		{"neg-inf-flops", []float64{-inf, 1e9}, nil},
		{"neg-flops", []float64{-1, 1e9}, nil},
		{"nan-bytes", []float64{1e9, 1e9}, [][]float64{{0, nan}, {0, 0}}},
		{"inf-bytes", []float64{1e9, 1e9}, [][]float64{{0, 0}, {inf, 0}}},
		{"neg-bytes", []float64{1e9, 1e9}, [][]float64{{0, -1}, {0, 0}}},
	} {
		s := New(starPlatform(t, 2), exactConfig())
		if p, err := s.NewParallelTask(c.name, c.flops, c.bytes); err == nil {
			t.Errorf("%s: accepted as a %d-slot ptask, want an error", c.name, p.Slots())
		}
	}
	s := New(starPlatform(t, 2), exactConfig())
	if _, err := s.NewParallelTask("ok", []float64{0, 1e9}, [][]float64{{0, 1e6}, {0, 0}}); err != nil {
		t.Errorf("finite non-negative payload refused: %v", err)
	}
}
