package simdag

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/surf"
	"repro/internal/trace"
)

// exactConfig removes the CM02 calibration factors so test expectations
// are closed-form: full nominal bandwidth, no RTT weighting or window
// bound.
func exactConfig() surf.Config {
	return surf.Config{BandwidthFactor: 1, LatencyFactor: 1, TCPGamma: 0, WeightByRTT: false}
}

// starPlatform builds n hosts ("h0"…) around a router, each behind a
// dedicated 1e8 B/s zero-latency link, with power 1e9·(1+i%3).
func starPlatform(t testing.TB, n int) *platform.Platform {
	t.Helper()
	pf := platform.New()
	if err := pf.AddRouter("sw"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		name := hostName(i)
		if err := pf.AddHost(&platform.Host{Name: name, Power: 1e9 * float64(1+i%3)}); err != nil {
			t.Fatal(err)
		}
		if err := pf.Connect(name, "sw", &platform.Link{
			Name: "lan-" + name, Bandwidth: 1e8, Latency: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return pf
}

func hostName(i int) string {
	return "h" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// TestDiamond runs the canonical diamond (A → B,C → D) with a data
// transfer on one branch and checks states, timing and makespan.
func TestDiamond(t *testing.T) {
	s := New(starPlatform(t, 2), exactConfig())
	a := s.NewTask("A", 1e9) // 1 s on h00
	b := s.NewTask("B", 2e9) // 2 s on h00
	c := s.NewTask("C", 2e9) // 1 s on h01 (2 Gflop/s)
	d := s.NewTask("D", 1e9)
	xfer := s.NewCommTask("A->C", 1e8) // 1 s across the two 1e8 links
	for _, dep := range [][2]*Task{{a, b}, {a, xfer}, {xfer, c}, {b, d}, {c, d}} {
		if err := s.AddDependency(dep[0], dep[1]); err != nil {
			t.Fatal(err)
		}
	}
	for task, host := range map[*Task]string{a: "h00", b: "h00", d: "h00"} {
		if err := task.Schedule(host); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Schedule("h01"); err != nil {
		t.Fatal(err)
	}
	if err := xfer.ScheduleComm("h00", "h01"); err != nil {
		t.Fatal(err)
	}

	hits, err := s.Simulate()
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(hits) != 0 {
		t.Errorf("unwatched run returned %d watch hits", len(hits))
	}
	for _, task := range s.Tasks() {
		if task.State() != Done {
			t.Errorf("task %s ended %s, want done", task.Name(), task.State())
		}
	}
	// A: [0,1]; B: [1,3]; xfer: [1,2]; C: [2,3]; D: [3,4].
	if !near(a.Finish(), 1) || !near(xfer.Finish(), 2) || !near(c.Finish(), 3) || !near(b.Finish(), 3) {
		t.Errorf("finishes A=%g xfer=%g B=%g C=%g", a.Finish(), xfer.Finish(), b.Finish(), c.Finish())
	}
	if !near(d.Start(), 3) || !near(d.Finish(), 4) || !near(s.Makespan(), 4) {
		t.Errorf("D ran [%g,%g], makespan %g; want [3,4], 4", d.Start(), d.Finish(), s.Makespan())
	}
	if s.DoneCount() != 5 || s.FailedCount() != 0 {
		t.Errorf("done=%d failed=%d, want 5/0", s.DoneCount(), s.FailedCount())
	}
	if g := s.Engine().Spawned(); g != 0 {
		t.Errorf("%d process goroutines spawned, want 0", g)
	}
}

// TestSeqChainCollapses checks that chains of zero-work sync tasks
// complete within a single instant and release through them.
func TestSeqChainCollapses(t *testing.T) {
	s := New(starPlatform(t, 1), exactConfig())
	a := s.NewTask("A", 1e9)
	var chain []*Task
	prev := a
	for i := 0; i < 10; i++ {
		sq := s.NewSeqTask("sync")
		if err := s.AddDependency(prev, sq); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, sq)
		prev = sq
	}
	b := s.NewTask("B", 1e9)
	if err := s.AddDependency(prev, b); err != nil {
		t.Fatal(err)
	}
	if err := a.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	if err := b.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	for _, sq := range chain {
		if sq.State() != Done || !near(sq.Finish(), 1) {
			t.Fatalf("seq task ended %s at %g, want done at 1", sq.State(), sq.Finish())
		}
	}
	if !near(b.Start(), 1) || !near(b.Finish(), 2) {
		t.Errorf("B ran [%g,%g], want [1,2]", b.Start(), b.Finish())
	}
}

// TestWatchPointStopsAndResumes pins the watch-point contract.
func TestWatchPointStopsAndResumes(t *testing.T) {
	s := New(starPlatform(t, 1), exactConfig())
	a := s.NewTask("A", 1e9)
	b := s.NewTask("B", 1e9)
	if err := s.AddDependency(a, b); err != nil {
		t.Fatal(err)
	}
	if err := a.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	a.Watch()

	hits, err := s.Simulate()
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(hits) != 1 || hits[0] != a {
		t.Fatalf("watch hits %v, want [A]", hits)
	}
	if b.State() != NotScheduled {
		t.Fatalf("B is %s before being scheduled, want not-scheduled", b.State())
	}
	// The scheduler reacts to the watch point: place B now.
	if err := b.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	hits, err = s.Simulate()
	if err != nil {
		t.Fatalf("resumed Simulate: %v", err)
	}
	if len(hits) != 0 {
		t.Errorf("resume returned hits %v, want none", hits)
	}
	if b.State() != Done || !near(b.Finish(), 2) {
		t.Errorf("B ended %s at %g, want done at 2", b.State(), b.Finish())
	}
}

// TestWatchPointInPreRunDrain: a watch point that fires in Simulate's
// synchronous pre-run drain (a watched root Seq task completes before
// the drive loop even starts) must still stop the run — regression
// test for the stop request being cleared by RunUntilIdle's entry
// reset.
func TestWatchPointInPreRunDrain(t *testing.T) {
	s := New(starPlatform(t, 1), exactConfig())
	root := s.NewSeqTask("root")
	root.Watch()
	b := s.NewTask("B", 1e9)
	if err := s.AddDependency(root, b); err != nil {
		t.Fatal(err)
	}
	if err := b.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	hits, err := s.Simulate()
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(hits) != 1 || hits[0] != root {
		t.Fatalf("watch hits %v, want [root]", hits)
	}
	if b.State() == Done {
		t.Fatal("B ran to completion: the pre-run watch point did not stop the run")
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("resumed Simulate: %v", err)
	}
	if b.State() != Done {
		t.Errorf("B ended %s after resume, want done", b.State())
	}
}

// TestFailurePropagation fails a running task's host programmatically
// and checks the dependents are cancelled while an independent branch
// completes.
func TestFailurePropagation(t *testing.T) {
	s := New(starPlatform(t, 2), exactConfig())
	doomed := s.NewTask("doomed", 4e9)
	child := s.NewTask("child", 1e9)
	grandchild := s.NewTask("grandchild", 1e9)
	bystander := s.NewTask("bystander", 1e9)
	if err := s.AddDependency(doomed, child); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDependency(child, grandchild); err != nil {
		t.Fatal(err)
	}
	for task, host := range map[*Task]string{doomed: "h00", child: "h00", grandchild: "h00", bystander: "h01"} {
		if err := task.Schedule(host); err != nil {
			t.Fatal(err)
		}
	}
	s.Engine().At(1, func() {
		if err := s.Model().FailHost("h00"); err != nil {
			t.Error(err)
		}
	})
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if doomed.State() != Failed || !errors.Is(doomed.Err(), ErrHostFailed) {
		t.Errorf("doomed ended %s (%v), want failed (host failure)", doomed.State(), doomed.Err())
	}
	for _, task := range []*Task{child, grandchild} {
		if task.State() != Failed || !errors.Is(task.Err(), ErrDependencyFailed) {
			t.Errorf("%s ended %s (%v), want cancelled", task.Name(), task.State(), task.Err())
		}
	}
	if bystander.State() != Done {
		t.Errorf("bystander ended %s, want done (independent branch must survive)", bystander.State())
	}
	if s.FailedCount() != 3 || s.DoneCount() != 1 {
		t.Errorf("done=%d failed=%d, want 1/3", s.DoneCount(), s.FailedCount())
	}
}

// TestVolatilityFailsDAGTasks drives the same failure through a state
// trace ("down" event mid-run), covering the iterative trace re-arm
// path together with the DAG cancellation cascade, and checks the host
// coming back up lets a freshly scheduled task run.
func TestVolatilityFailsDAGTasks(t *testing.T) {
	pf := platform.New()
	st, err := trace.ParseString("updown", "0.5 0\n2.0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.AddHost(&platform.Host{Name: "volatile", Power: 1e9, StateTrace: st}); err != nil {
		t.Fatal(err)
	}
	s := New(pf, exactConfig())
	longRun := s.NewTask("long-run", 2e9) // needs 2 s, dies at 0.5
	dependent := s.NewTask("dependent", 1e9)
	if err := s.AddDependency(longRun, dependent); err != nil {
		t.Fatal(err)
	}
	if err := longRun.Schedule("volatile"); err != nil {
		t.Fatal(err)
	}
	if err := dependent.Schedule("volatile"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if longRun.State() != Failed || !errors.Is(longRun.Err(), ErrHostFailed) {
		t.Fatalf("long-run ended %s (%v), want failed with host failure", longRun.State(), longRun.Err())
	}
	if !near(longRun.Finish(), 0.5) {
		t.Errorf("long-run failed at %g, want 0.5 (trace down event)", longRun.Finish())
	}
	if dependent.State() != Failed || !errors.Is(dependent.Err(), ErrDependencyFailed) {
		t.Errorf("dependent ended %s (%v), want cancelled", dependent.State(), dependent.Err())
	}

	// The trace brings the host back at t=2: a retry scheduled after the
	// failure runs to completion.
	retry := s.NewTask("retry", 1e9)
	if err := retry.Schedule("volatile"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("retry Simulate: %v", err)
	}
	if retry.State() != Done {
		t.Fatalf("retry ended %s (%v), want done after the host recovered", retry.State(), retry.Err())
	}
	if retry.Finish() < 2 {
		t.Errorf("retry finished at %g, before the host came back at 2", retry.Finish())
	}
}

// TestPeriodicTraceEndsSimulate: a periodic trace replays forever, yet
// Simulate returns once the DAG has drained, and a task the trace
// starves still runs to its end. Simulate runs on a goroutine, so a
// replay that never stops fails the test instead of hanging it.
func TestPeriodicTraceEndsSimulate(t *testing.T) {
	pf := platform.New()
	av := trace.MustNew("av", []trace.Event{{Time: 0, Value: 1}, {Time: 1, Value: 0}, {Time: 2, Value: 1}}, 3)
	if err := pf.AddHost(&platform.Host{Name: "h", Power: 1e9, Availability: av}); err != nil {
		t.Fatal(err)
	}
	s := New(pf, exactConfig())
	task := s.NewTask("t", 2e9) // 1 s of work, stalled over [1, 2], 1 s more
	if err := task.Schedule("h"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Simulate()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Simulate: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Simulate still replaying the periodic trace 5 s after starting")
	}
	if task.State() != Done || !near(task.Finish(), 3) {
		t.Errorf("task ended %s at %g, want done at 3", task.State(), task.Finish())
	}
	if !near(s.Engine().Now(), 3) {
		t.Errorf("clock stopped at %g, want 3", s.Engine().Now())
	}
}

// TestCycleDetection rejects cyclic graphs.
func TestCycleDetection(t *testing.T) {
	s := New(starPlatform(t, 1), exactConfig())
	a := s.NewTask("A", 1)
	b := s.NewTask("B", 1)
	c := s.NewTask("C", 1)
	for _, dep := range [][2]*Task{{a, b}, {b, c}, {c, a}} {
		if err := s.AddDependency(dep[0], dep[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Simulate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Simulate on a cycle returned %v, want ErrCycle", err)
	}
}

// TestAPIErrors covers the state-machine guard rails.
func TestAPIErrors(t *testing.T) {
	s := New(starPlatform(t, 1), exactConfig())
	a := s.NewTask("A", 1)
	if err := a.Schedule("nope"); err == nil || !strings.Contains(err.Error(), "unknown host") {
		t.Errorf("Schedule on unknown host: %v", err)
	}
	if err := a.ScheduleComm("h00", "h00"); err == nil {
		t.Error("ScheduleComm on a compute task succeeded")
	}
	if err := s.AddDependency(a, a); err == nil {
		t.Error("self-dependency accepted")
	}
	b := s.NewTask("B", 1)
	if err := s.AddDependency(a, b); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDependency(a, b); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate dependency returned %v, want ErrDuplicate", err)
	}
	if err := a.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	if err := b.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if err := a.Schedule("h00"); !errors.Is(err, ErrBadState) {
		t.Errorf("Schedule on a done task returned %v, want ErrBadState", err)
	}
	c := s.NewTask("C", 1)
	// Depending on an already-done task is vacuously satisfied.
	if err := s.AddDependency(a, c); err != nil {
		t.Errorf("dependency on done task: %v", err)
	}
	if err := c.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if c.State() != Done {
		t.Errorf("C ended %s, want done", c.State())
	}
}

// TestUnplacedTasksStayPut: a run with an unscheduled tail is not an
// error; the tail simply does not execute.
func TestUnplacedTasksStayPut(t *testing.T) {
	s := New(starPlatform(t, 1), exactConfig())
	a := s.NewTask("A", 1e9)
	b := s.NewTask("B", 1e9) // never scheduled
	if err := s.AddDependency(a, b); err != nil {
		t.Fatal(err)
	}
	if err := a.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if a.State() != Done || b.State() != NotScheduled {
		t.Errorf("states A=%s B=%s, want done/not-scheduled", a.State(), b.State())
	}
}

// TestLocalCommIsFree: a comm task between identical endpoints
// completes without consuming network time.
func TestLocalCommIsFree(t *testing.T) {
	s := New(starPlatform(t, 1), exactConfig())
	c := s.NewCommTask("local", 1e9)
	if err := c.ScheduleComm("h00", "h00"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if c.State() != Done || !near(c.Finish(), 0) {
		t.Errorf("local comm ended %s at %g, want done at 0", c.State(), c.Finish())
	}
}

// TestCommWithoutRoute: a comm task between hosts with no route is
// still schedulable; it fails when it starts, with the platform's
// no-route error, and its dependents are cancelled. A route declared
// over an existing link before Simulate lets the same schedule run.
func TestCommWithoutRoute(t *testing.T) {
	build := func() (*platform.Platform, *Simulation, *Task, *Task) {
		pf := platform.New()
		for _, h := range []string{"a", "b", "c"} {
			if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
				t.Fatal(err)
			}
		}
		if err := pf.AddRoute("a", "b", []*platform.Link{{Name: "ab", Bandwidth: 1e8, Latency: 0.5}}); err != nil {
			t.Fatal(err)
		}
		s := New(pf, exactConfig())
		x := s.NewCommTask("x", 1e8)
		y := s.NewTask("y", 1e9)
		if err := s.AddDependency(x, y); err != nil {
			t.Fatal(err)
		}
		if err := x.ScheduleComm("a", "c"); err != nil {
			t.Fatalf("ScheduleComm on a routeless pair: %v", err)
		}
		if err := y.Schedule("c"); err != nil {
			t.Fatal(err)
		}
		return pf, s, x, y
	}

	_, s, x, y := build()
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if x.State() != Failed || x.Err() == nil || x.Err().Error() != `platform: no route between hosts: "a" -> "c"` {
		t.Errorf("x ended %s (%v), want failed with the no-route error", x.State(), x.Err())
	}
	if y.State() != Failed || !errors.Is(y.Err(), ErrDependencyFailed) {
		t.Errorf("y ended %s (%v), want cancelled", y.State(), y.Err())
	}

	pf, s, x, y := build()
	if err := pf.AddRoute("a", "c", []*platform.Link{pf.Link("ab")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if x.State() != Done || !near(x.Finish(), 1.5) || y.State() != Done || !near(y.Finish(), 2.5) {
		t.Errorf("x ended %s at %g, y %s at %g; want done at 1.5 and 2.5", x.State(), x.Finish(), y.State(), y.Finish())
	}
}
