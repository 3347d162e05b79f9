package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/instr"
)

func TestEmptyEngineRuns(t *testing.T) {
	e := New()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Now() != 0 {
		t.Errorf("Now = %g, want 0", e.Now())
	}
}

func TestSingleProcessRuns(t *testing.T) {
	e := New()
	ran := false
	e.Spawn("p", nil, func(p *Process) { ran = true })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Error("process did not run")
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := New()
	var at float64
	e.Spawn("sleeper", nil, func(p *Process) {
		if err := p.Sleep(3.5); err != nil {
			t.Errorf("Sleep: %v", err)
		}
		at = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 3.5 {
		t.Errorf("woke at %g, want 3.5", at)
	}
	if e.Now() != 3.5 {
		t.Errorf("final time %g, want 3.5", e.Now())
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := New()
	e.Spawn("p", nil, func(p *Process) {
		if err := p.Sleep(-1); err != nil {
			t.Errorf("Sleep(-1): %v", err)
		}
		if e.Now() != 0 {
			t.Errorf("Now = %g after Sleep(-1)", e.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestInterleavedSleeps(t *testing.T) {
	e := New()
	var order []string
	mk := func(name string, d float64) {
		e.Spawn(name, nil, func(p *Process) {
			p.Sleep(d)
			order = append(order, name)
		})
	}
	mk("c", 3)
	mk("a", 1)
	mk("b", 2)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := New()
	var childRan bool
	e.Spawn("parent", nil, func(p *Process) {
		e.Spawn("child", nil, func(c *Process) {
			childRan = true
			// The child starts at the virtual time it was spawned at: it
			// runs as soon as the parent yields (here: at its sleep).
			if e.Now() != 0 {
				t.Errorf("child started at %g, want 0", e.Now())
			}
		})
		p.Sleep(1)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !childRan {
		t.Error("child did not run")
	}
}

func TestTimersFireInOrder(t *testing.T) {
	e := New()
	var seq []float64
	e.At(2, func() { seq = append(seq, 2) })
	e.At(1, func() { seq = append(seq, 1) })
	e.At(1.5, func() { seq = append(seq, 1.5) })
	// Need a process so the engine has something to do... timers fire
	// even without processes? live==0 ends immediately; spawn a sleeper.
	e.Spawn("s", nil, func(p *Process) { p.Sleep(5) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []float64{1, 1.5, 2}
	if len(seq) != 3 {
		t.Fatalf("fired %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Errorf("seq = %v, want %v", seq, want)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	e := New()
	fired := false
	tm := e.At(1, func() { fired = true })
	tm.Cancel()
	e.Spawn("s", nil, func(p *Process) { p.Sleep(2) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("canceled timer fired")
	}
}

func TestSameTimeTimersFIFO(t *testing.T) {
	e := New()
	var seq []int
	e.At(1, func() { seq = append(seq, 1) })
	e.At(1, func() { seq = append(seq, 2) })
	e.At(1, func() { seq = append(seq, 3) })
	e.Spawn("s", nil, func(p *Process) { p.Sleep(2) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(seq) != 3 || seq[0] != 1 || seq[1] != 2 || seq[2] != 3 {
		t.Errorf("seq = %v, want [1 2 3]", seq)
	}
}

func TestBlockWake(t *testing.T) {
	e := New()
	var waiter *Process
	gotErr := errors.New("unset")
	e.Spawn("waiter", nil, func(p *Process) {
		waiter = p
		gotErr = p.BlockOn(SimcallWait)
	})
	e.Spawn("waker", nil, func(p *Process) {
		p.Sleep(1)
		e.Wake(waiter, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotErr != nil {
		t.Errorf("BlockOn returned %v, want nil", gotErr)
	}
}

func TestWakeDeliversError(t *testing.T) {
	e := New()
	sentinel := errors.New("sentinel")
	var waiter *Process
	var gotErr error
	e.Spawn("waiter", nil, func(p *Process) {
		waiter = p
		gotErr = p.BlockOn(SimcallWait)
	})
	e.Spawn("waker", nil, func(p *Process) {
		p.Sleep(1)
		e.Wake(waiter, sentinel)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotErr != sentinel {
		t.Errorf("BlockOn returned %v, want sentinel", gotErr)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := New()
	e.Spawn("stuck", nil, func(p *Process) { p.BlockOn(SimcallWait) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck" {
		t.Errorf("Blocked = %v, want [stuck]", dl.Blocked)
	}
	if dl.Error() == "" {
		t.Error("empty error string")
	}
}

func TestDaemonDoesNotPreventTermination(t *testing.T) {
	e := New()
	daemonCleanup := false
	e.Spawn("daemon", nil, func(p *Process) {
		p.Daemonize()
		defer func() { daemonCleanup = true }()
		for {
			p.BlockOn(SimcallWait) // wait forever
		}
	})
	e.Spawn("worker", nil, func(p *Process) { p.Sleep(2) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Now() != 2 {
		t.Errorf("ended at %g, want 2", e.Now())
	}
	if !daemonCleanup {
		t.Error("daemon defers did not run at shutdown")
	}
}

func TestKillBlockedProcess(t *testing.T) {
	e := New()
	var victim *Process
	cleanedUp := false
	reached := false
	e.Spawn("victim", nil, func(p *Process) {
		victim = p
		defer func() { cleanedUp = true }()
		p.BlockOn(SimcallWait)
		reached = true // must not run: kill unwinds
	})
	e.Spawn("killer", nil, func(p *Process) {
		p.Sleep(1)
		victim.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reached {
		t.Error("killed process continued after BlockOn")
	}
	if !cleanedUp {
		t.Error("killed process defers did not run")
	}
	if victim.err != ErrKilled {
		t.Errorf("victim.err = %v, want ErrKilled", victim.err)
	}
}

// TestKilledSleeperLeavesClock: a killed sleeper's timer goes with it,
// so the clock stops at the kill, both under Run (the killer's
// deadlock is reported at t=1) and under RunUntilIdle.
func TestKilledSleeperLeavesClock(t *testing.T) {
	e := New()
	sleeper := e.Spawn("sleeper", nil, func(p *Process) { p.Sleep(100) })
	e.Spawn("killer", nil, func(p *Process) {
		p.Sleep(1)
		sleeper.Kill()
		p.BlockOn(SimcallWait)
	})
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) || e.Now() != 1 {
		t.Errorf("Run = %v at t=%g, want the killer's deadlock at t=1", err, e.Now())
	}

	e = New()
	sleeper = e.Spawn("sleeper", nil, func(p *Process) { p.Sleep(100) })
	e.At(1, sleeper.Kill)
	if err := e.RunUntilIdle(); err != nil || e.Now() != 1 {
		t.Errorf("RunUntilIdle = %v at t=%g, want nil at t=1", err, e.Now())
	}
}

// TestSleepNaNFailsSleeper: a NaN wake time would hide every timer
// behind it in the heap; the sleep panics instead, failing only the
// sleeper, and the other process still wakes at t=1.
func TestSleepNaNFailsSleeper(t *testing.T) {
	e := New()
	e.ContainPanics = true
	bad := e.Spawn("bad", nil, func(p *Process) { p.Sleep(math.NaN()) })
	var wokeAt float64
	e.Spawn("good", nil, func(p *Process) {
		p.Sleep(1)
		wokeAt = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var pe *PanicError
	if !errors.As(bad.err, &pe) {
		t.Errorf("bad.err = %v, want a *PanicError", bad.err)
	}
	if wokeAt != 1 {
		t.Errorf("good woke at %g, want 1", wokeAt)
	}
}

func TestKillSelf(t *testing.T) {
	e := New()
	after := false
	e.Spawn("suicidal", nil, func(p *Process) {
		p.Kill()
		after = true
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after {
		t.Error("code after self-Kill ran")
	}
}

func TestKillNotYetStarted(t *testing.T) {
	e := New()
	ran := false
	var victim *Process
	// killer is spawned first so it runs before victim's first schedule.
	e.Spawn("killer", nil, func(p *Process) { victim.Kill() })
	victim = e.Spawn("victim", nil, func(p *Process) { ran = true })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Error("killed-before-start process body ran")
	}
}

func TestOnExitHooks(t *testing.T) {
	e := New()
	var exitErr error
	hooks := 0
	e.Spawn("p", nil, func(p *Process) {
		p.OnExit(func(err error) { hooks++; exitErr = err })
		p.OnExit(func(err error) { hooks++ })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if hooks != 2 {
		t.Errorf("hooks = %d, want 2", hooks)
	}
	if exitErr != nil {
		t.Errorf("exit err = %v, want nil", exitErr)
	}
}

func TestOnExitSeesKillError(t *testing.T) {
	e := New()
	var exitErr error
	var victim *Process
	e.Spawn("victim", nil, func(p *Process) {
		victim = p
		p.OnExit(func(err error) { exitErr = err })
		p.BlockOn(SimcallWait)
	})
	e.Spawn("killer", nil, func(p *Process) { victim.Kill() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if exitErr != ErrKilled {
		t.Errorf("exit err = %v, want ErrKilled", exitErr)
	}
}

func TestSuspendResumeSelf(t *testing.T) {
	e := New()
	var suspended *Process
	var resumedAt float64
	e.Spawn("s", nil, func(p *Process) {
		suspended = p
		p.Suspend() // blocks until resumed
		resumedAt = e.Now()
	})
	e.Spawn("r", nil, func(p *Process) {
		p.Sleep(2)
		if !suspended.suspended {
			t.Error("process not reported suspended")
		}
		suspended.Resume()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resumedAt != 2 {
		t.Errorf("resumed at %g, want 2", resumedAt)
	}
}

func TestSuspendDefersWake(t *testing.T) {
	// A process suspended while blocked must not receive its wake-up
	// until resumed.
	e := New()
	var waiter *Process
	var wokeAt float64
	e.Spawn("waiter", nil, func(p *Process) {
		waiter = p
		p.BlockOn(SimcallWait)
		wokeAt = e.Now()
	})
	e.Spawn("driver", nil, func(p *Process) {
		p.Sleep(1)
		waiter.Suspend()
		e.Wake(waiter, nil) // arrives while suspended
		p.Sleep(2)          // t=3
		waiter.Resume()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokeAt != 3 {
		t.Errorf("woke at %g, want 3 (after resume)", wokeAt)
	}
}

func TestSuspendRunnableProcess(t *testing.T) {
	e := New()
	var target *Process
	var phase2 float64
	e.Spawn("driver", nil, func(p *Process) {
		// target is runnable (spawned, not yet run). Suspend it now.
		target.Suspend()
		p.Sleep(5)
		target.Resume()
	})
	target = e.Spawn("target", nil, func(p *Process) {
		phase2 = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if phase2 != 5 {
		t.Errorf("target ran at %g, want 5", phase2)
	}
}

func TestProcessPanicSurfacesAsError(t *testing.T) {
	e := New()
	e.Spawn("bomb", nil, func(p *Process) { panic("boom") })
	err := e.Run()
	if err == nil || !contains(err.Error(), "boom") {
		t.Errorf("Run = %v, want panic error mentioning boom", err)
	}
}

func TestStopAtHorizon(t *testing.T) {
	e := New()
	e.At(10, e.Stop)
	e.Spawn("long", nil, func(p *Process) { p.Sleep(100) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Now() != 10 {
		t.Errorf("ended at %g, want 10", e.Now())
	}
}

func TestProcessRegistry(t *testing.T) {
	e := New()
	p1 := e.Spawn("one", "host1", func(p *Process) { p.Sleep(1) })
	e.Spawn("two", "host2", func(p *Process) { p.Sleep(1) })
	if e.liveAll != 2 {
		t.Errorf("%d live processes, want 2", e.liveAll)
	}
	procs := e.Processes()
	if len(procs) != 2 || procs[0].name != "one" || procs[1].name != "two" {
		t.Errorf("Processes() = %v", procs)
	}
	if p1.host != "host1" {
		t.Errorf("Host = %v, want host1", p1.host)
	}
	p1.SetHost("elsewhere")
	if p1.host != "elsewhere" {
		t.Error("SetHost did not stick")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.liveAll != 0 {
		t.Errorf("%d live processes after run, want 0", e.liveAll)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Created: "created", Runnable: "runnable", Running: "running",
		Waiting: "waiting", Done: "done", State(42): "state(42)",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestAfterTimer(t *testing.T) {
	e := New()
	var at float64 = -1
	e.Spawn("p", nil, func(p *Process) {
		p.Sleep(2)
		e.After(3, func() { at = e.Now() })
		p.Sleep(5)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 5 {
		t.Errorf("After fired at %g, want 5", at)
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	e := New()
	var at float64 = -1
	e.Spawn("p", nil, func(p *Process) {
		p.Sleep(2)
		e.At(1, func() { at = e.Now() }) // in the past
		p.Sleep(1)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 2 {
		t.Errorf("past timer fired at %g, want 2 (clamped)", at)
	}
}

// fakeModel exercises the Model plumbing: a single "action" completing
// at a fixed time.
type fakeModel struct {
	completeAt float64
	done       bool
	onComplete func()
	advanced   []float64
}

func (m *fakeModel) NextEventTime(now float64) float64 {
	if m.done {
		return math.Inf(1)
	}
	return m.completeAt
}

func (m *fakeModel) Quiet() bool { return false }

func (m *fakeModel) AdvanceTo(now, t float64) {
	m.advanced = append(m.advanced, t)
	if !m.done && t >= m.completeAt {
		m.done = true
		m.onComplete()
	}
}

// TestModelAdvanceSkippedWhenNotDue pins the Model contract: AdvanceTo
// is only invoked for steps that reach the model's reported next event
// time, so timer-driven steps before it never poll the model.
func TestModelAdvanceSkippedWhenNotDue(t *testing.T) {
	e := New()
	var waiter *Process
	m := &fakeModel{completeAt: 10}
	m.onComplete = func() { e.Wake(waiter, nil) }
	e.SetModel(m)
	var timerFired []float64
	e.At(2, func() { timerFired = append(timerFired, e.Now()) })
	e.At(5, func() { timerFired = append(timerFired, e.Now()) })
	e.Spawn("w", nil, func(p *Process) {
		waiter = p
		p.BlockOn(SimcallWait)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(timerFired) != 2 {
		t.Fatalf("timers fired at %v, want 2 firings", timerFired)
	}
	if len(m.advanced) != 1 || m.advanced[0] != 10 {
		t.Errorf("model advanced at %v, want exactly [10] (timer steps must be skipped)", m.advanced)
	}
}

func TestModelDrivesCompletion(t *testing.T) {
	e := New()
	var waiter *Process
	var wokeAt float64
	m := &fakeModel{completeAt: 4}
	m.onComplete = func() { e.Wake(waiter, nil) }
	e.SetModel(m)
	e.Spawn("w", nil, func(p *Process) {
		waiter = p
		p.BlockOn(SimcallWait)
		wokeAt = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokeAt != 4 {
		t.Errorf("woke at %g, want 4", wokeAt)
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := New()
	if err := e.Run(); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	// Running an exhausted engine again is fine (no processes).
	if err := e.Run(); err != nil {
		t.Fatalf("second Run: %v", err)
	}
}

func TestBlockOutsideProcessPanics(t *testing.T) {
	e := New()
	p := e.Spawn("p", nil, func(p *Process) {})
	defer func() {
		if recover() == nil {
			t.Error("BlockOn outside process did not panic")
		}
		// Drain the engine so the spawned goroutine terminates.
		e.Run()
	}()
	p.BlockOn(SimcallWait)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestProfilerWithProcessHandoff runs coroutine processes with the
// phase profiler attached: the dispatch span is charged once per
// kernel turn, closed when the first woken process resumes, and the
// test is race-clean.
func TestProfilerWithProcessHandoff(t *testing.T) {
	e := New()
	prof := instr.NewProfiler()
	e.SetProfiler(prof)
	const procs, rounds = 8, 50
	for i := 0; i < procs; i++ {
		d := 0.001 * float64(i+1)
		e.Spawn("sleeper", nil, func(p *Process) {
			for r := 0; r < rounds; r++ {
				if err := p.Sleep(d); err != nil {
					t.Errorf("Sleep: %v", err)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	turns := prof.Count(instr.PhaseSweep)
	if turns == 0 {
		t.Fatal("profiler saw no kernel turn")
	}
	if got := prof.Count(instr.PhaseDispatch); got != turns {
		t.Errorf("dispatch span charged %d times over %d kernel turns", got, turns)
	}
}
