package core

import (
	"errors"
	"testing"
)

// fakeActivity implements Activity for fast/slow path tests.
type fakeActivity struct {
	done     bool
	err      error
	attached *Process
}

func (f *fakeActivity) Poll() (bool, error) { return f.done, f.err }
func (f *fakeActivity) Attach(p *Process)   { f.attached = p }

// TestSleepZeroFastPath pins the fast path: a zero (or negative)
// duration sleep has nothing to wait for and completes with zero
// channel round trips, counted by the engine's fast-path counter.
func TestSleepZeroFastPath(t *testing.T) {
	e := New()
	e.Spawn("p", nil, func(p *Process) {
		if err := p.Sleep(0); err != nil {
			t.Errorf("Sleep(0): %v", err)
		}
		if err := p.Sleep(-3); err != nil {
			t.Errorf("Sleep(-3): %v", err)
		}
		st := e.SimcallStats()
		if st.Fast != 2 {
			t.Errorf("Fast = %d, want 2", st.Fast)
		}
		if st.Slow != 0 {
			t.Errorf("Slow = %d, want 0 (no round trip for zero sleeps)", st.Slow)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSleepZeroYieldsWhenOthersRunnable documents the fast-path guard:
// a zero sleep is only answered inline when nobody else is schedulable
// at this instant — with another runnable process it still yields (the
// pre-refactor behaviour), so zero-sleep polling loops cannot starve
// the simulation.
func TestSleepZeroYieldsWhenOthersRunnable(t *testing.T) {
	e := New()
	var order []string
	e.Spawn("a", nil, func(p *Process) {
		p.Sleep(0) // b is runnable: must park behind it
		order = append(order, "a")
	})
	e.Spawn("b", nil, func(p *Process) {
		order = append(order, "b")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Errorf("order = %v, want [b a]", order)
	}
	if st := e.SimcallStats(); st.Fast != 0 {
		t.Errorf("Fast = %d, want 0 (guarded zero sleep must take the slow path)", st.Fast)
	}
}

// TestSleepZeroPollingLoopProgresses pins the livelock guard end to
// end: a process polling with Sleep(0) must not prevent the process
// that satisfies its condition from running.
func TestSleepZeroPollingLoopProgresses(t *testing.T) {
	e := New()
	done := false
	e.Spawn("poller", nil, func(p *Process) {
		for i := 0; !done; i++ {
			if i > 100 {
				t.Error("polling loop starved the setter")
				return
			}
			p.Sleep(0)
		}
	})
	e.Spawn("setter", nil, func(p *Process) {
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Error("setter never ran")
	}
}

// TestYieldFastPathEmptyQueue: yielding with nobody else runnable is
// answered inline.
func TestYieldFastPathEmptyQueue(t *testing.T) {
	e := New()
	e.Spawn("solo", nil, func(p *Process) {
		p.Yield()
		st := e.SimcallStats()
		if st.Fast != 1 {
			t.Errorf("Fast = %d, want 1", st.Fast)
		}
		if st.Slow != 0 {
			t.Errorf("Slow = %d, want 0", st.Slow)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWaitActivityFastPath: waiting on a completed activity returns its
// outcome inline, with no handoff.
func TestWaitActivityFastPath(t *testing.T) {
	e := New()
	sentinel := errors.New("outcome")
	e.Spawn("p", nil, func(p *Process) {
		a := &fakeActivity{done: true, err: sentinel}
		if err := p.WaitActivity(a); err != sentinel {
			t.Errorf("WaitActivity = %v, want sentinel", err)
		}
		if a.attached != nil {
			t.Error("fast path attached a waiter")
		}
		st := e.SimcallStats()
		if st.Fast != 1 || st.Slow != 0 {
			t.Errorf("stats = %+v, want Fast=1 Slow=0", st)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWaitActivitySlowPath: a pending activity parks the caller (one
// slow simcall) until its owner wakes it.
func TestWaitActivitySlowPath(t *testing.T) {
	e := New()
	a := &fakeActivity{}
	var wokeAt float64
	e.Spawn("p", nil, func(p *Process) {
		if err := p.WaitActivity(a); err != nil {
			t.Errorf("WaitActivity: %v", err)
		}
		wokeAt = e.Now()
	})
	e.At(2, func() {
		a.done = true
		e.Wake(a.attached, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokeAt != 2 {
		t.Errorf("woke at %g, want 2", wokeAt)
	}
	if st := e.SimcallStats(); st.Slow != 1 {
		t.Errorf("Slow = %d, want 1", st.Slow)
	}
}

// TestTestActivityNonBlocking: the probe never yields, whatever the
// activity state.
func TestTestActivityNonBlocking(t *testing.T) {
	e := New()
	e.Spawn("p", nil, func(p *Process) {
		a := &fakeActivity{}
		if done, _ := p.TestActivity(a); done {
			t.Error("pending activity reported done")
		}
		a.done = true
		if done, _ := p.TestActivity(a); !done {
			t.Error("completed activity reported pending")
		}
		if st := e.SimcallStats(); st.Fast != 2 || st.Slow != 0 {
			t.Errorf("stats = %+v, want Fast=2 Slow=0", st)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSimcallKindVisible: a blocked process reports the typed simcall
// it is stuck in.
func TestSimcallKindVisible(t *testing.T) {
	e := New()
	var sleeper, recver *Process
	e.Spawn("sleeper", nil, func(p *Process) {
		sleeper = p
		p.Sleep(5)
	})
	e.Spawn("recver", nil, func(p *Process) {
		recver = p
		_ = p.BlockOn(SimcallRecv)
	})
	e.Spawn("observer", nil, func(p *Process) {
		p.Sleep(1)
		if k := sleeper.Simcall(); k != SimcallSleep {
			t.Errorf("sleeper stuck in %v, want sleep", k)
		}
		if k := recver.Simcall(); k != SimcallRecv {
			t.Errorf("recver stuck in %v, want recv", k)
		}
		e.Wake(recver, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sleeper.Simcall() != SimcallNone {
		t.Errorf("done process still reports %v", sleeper.Simcall())
	}
}

// TestDeadlockReportsSimcalls: the deadlock error names the typed
// simcall each blocked process is stuck in.
func TestDeadlockReportsSimcalls(t *testing.T) {
	e := New()
	e.Spawn("stuck-recv", nil, func(p *Process) { p.BlockOn(SimcallRecv) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Calls) != 1 || dl.Calls[0] != SimcallRecv {
		t.Errorf("Calls = %v, want [recv]", dl.Calls)
	}
}

// TestKillClearsPendingWake is the regression test for stale deferred
// wakes: a wake that arrived while the victim was suspended must not
// shadow ErrKilled.
func TestKillClearsPendingWake(t *testing.T) {
	e := New()
	stale := errors.New("stale wake")
	var victim *Process
	cleanedUp := false
	e.Spawn("victim", nil, func(p *Process) {
		victim = p
		defer func() { cleanedUp = true }()
		p.Block()
		t.Error("killed process continued after Block")
	})
	e.Spawn("killer", nil, func(p *Process) {
		p.Sleep(1)
		victim.Suspend()
		e.Wake(victim, stale) // deferred: victim is suspended
		if victim.pendingWake == nil {
			t.Error("wake-while-suspended was not deferred")
		}
		victim.Kill()
		if victim.pendingWake != nil {
			t.Error("Kill left a stale pendingWake")
		}
		victim.Resume() // must not resurrect the stale wake
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !cleanedUp {
		t.Error("victim defers did not run")
	}
	if victim.Err() != ErrKilled {
		t.Errorf("victim.Err() = %v, want ErrKilled (stale wake must not shadow it)", victim.Err())
	}
}

// TestKillWhileSuspended: killing a suspended-while-blocked process
// unwinds it with ErrKilled even though it was parked.
func TestKillWhileSuspended(t *testing.T) {
	e := New()
	var victim *Process
	cleanedUp := false
	e.Spawn("victim", nil, func(p *Process) {
		victim = p
		defer func() { cleanedUp = true }()
		p.Block()
	})
	e.Spawn("driver", nil, func(p *Process) {
		p.Sleep(1)
		victim.Suspend()
		p.Sleep(1)
		victim.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !cleanedUp {
		t.Error("victim defers did not run")
	}
	if victim.Err() != ErrKilled {
		t.Errorf("victim.Err() = %v, want ErrKilled", victim.Err())
	}
}

// TestSuspendRunnableRedeliversWake: suspending a process that was
// already woken (Runnable) parks it again, and Resume re-delivers the
// original wake error.
func TestSuspendRunnableRedeliversWake(t *testing.T) {
	e := New()
	sentinel := errors.New("sentinel")
	var victim *Process
	var gotErr error
	var wokeAt float64
	e.Spawn("victim", nil, func(p *Process) {
		victim = p
		gotErr = p.Block()
		wokeAt = e.Now()
	})
	e.Spawn("driver", nil, func(p *Process) {
		p.Sleep(1)
		e.Wake(victim, sentinel) // victim runnable with the sentinel
		victim.Suspend()         // suspended before it runs
		p.Sleep(2)               // the scheduler parks it meanwhile
		victim.Resume()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotErr != sentinel {
		t.Errorf("Block returned %v, want sentinel (wake re-delivered on resume)", gotErr)
	}
	if wokeAt != 3 {
		t.Errorf("woke at %g, want 3", wokeAt)
	}
}

// TestResumeAfterSameInstantWake: two waiters woken in the same instant;
// one is suspended in the same instant and must only see its wake after
// Resume.
func TestResumeAfterSameInstantWake(t *testing.T) {
	e := New()
	var w1, w2 *Process
	var woke1, woke2 float64
	e.Spawn("w1", nil, func(p *Process) {
		w1 = p
		if err := p.Block(); err != nil {
			t.Errorf("w1: %v", err)
		}
		woke1 = e.Now()
	})
	e.Spawn("w2", nil, func(p *Process) {
		w2 = p
		if err := p.Block(); err != nil {
			t.Errorf("w2: %v", err)
		}
		woke2 = e.Now()
	})
	e.At(1, func() {
		e.Wake(w1, nil)
		e.Wake(w2, nil)
		w2.Suspend() // same instant: w2 must stay parked
	})
	e.At(2, func() { w2.Resume() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke1 != 1 {
		t.Errorf("w1 woke at %g, want 1", woke1)
	}
	if woke2 != 2 {
		t.Errorf("w2 woke at %g, want 2 (after resume)", woke2)
	}
}

// TestSuspendSelfCarrierStaysParked is the regression test for the
// dispatch check order: the kernel turn runs on the sole waiting
// process's own stack; a timer wakes it and suspends it in the same
// instant, and it must stay parked until Resume — the self-dispatch
// shortcut must not bypass the suspended check.
func TestSuspendSelfCarrierStaysParked(t *testing.T) {
	e := New()
	var victim *Process
	var wokeAt float64
	e.Spawn("victim", nil, func(p *Process) {
		victim = p
		if err := p.Block(); err != nil {
			t.Errorf("Block: %v", err)
		}
		wokeAt = e.Now()
		if p.Suspended() {
			t.Error("process ran while suspended")
		}
	})
	e.At(1, func() {
		e.Wake(victim, nil)
		victim.Suspend()
	})
	e.At(2, func() { victim.Resume() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokeAt != 2 {
		t.Errorf("woke at %g, want 2 (after resume)", wokeAt)
	}
}

// TestKillWhileRunningKernelTurn: a timer killing the very process
// whose goroutine carries the kernel turn must unwind it cleanly.
func TestKillWhileRunningKernelTurn(t *testing.T) {
	e := New()
	var victim *Process
	cleanedUp := false
	e.Spawn("victim", nil, func(p *Process) {
		victim = p
		defer func() { cleanedUp = true }()
		p.Sleep(10) // parks; its own stack runs the kernel turn
	})
	e.At(1, func() { victim.Kill() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !cleanedUp {
		t.Error("victim defers did not run")
	}
	if victim.Err() != ErrKilled {
		t.Errorf("victim.Err() = %v, want ErrKilled", victim.Err())
	}
	if e.Now() != 1 {
		t.Errorf("ended at %g, want 1", e.Now())
	}
}
