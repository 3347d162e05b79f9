package core

import (
	"errors"
	"testing"
)

// TestSleepZeroFastPath pins the fast path: a zero (or negative)
// duration sleep has nothing to wait for and completes without a
// yield, counted by the engine's fast-path counter.
func TestSleepZeroFastPath(t *testing.T) {
	e := New()
	e.Spawn("p", nil, func(p *Process) {
		if err := p.Sleep(0); err != nil {
			t.Errorf("Sleep(0): %v", err)
		}
		if err := p.Sleep(-3); err != nil {
			t.Errorf("Sleep(-3): %v", err)
		}
		st := e.stats
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

// TestSleepZeroSeesTimerBehindCanceled: a canceled timer ahead of a
// live one due now must not let a zero sleep take the fast path; the
// live timer fires before Sleep returns.
func TestSleepZeroSeesTimerBehindCanceled(t *testing.T) {
	e := New()
	fired := false
	e.Spawn("p", nil, func(p *Process) {
		e.At(e.Now(), func() {}).Cancel()
		e.At(e.Now(), func() { fired = true })
		p.Sleep(0)
		if !fired {
			t.Error("Sleep(0) returned before the timer due now fired")
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
	if st := e.stats; st.Fast != 0 {
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

// TestWaitActivityFastPath: a wait an upper layer answers inline (surf's
// Wait on a finished action) is counted through FastSimcall as one fast
// simcall, with no yield: no other process runs and time stands still.
func TestWaitActivityFastPath(t *testing.T) {
	e := New()
	otherRan := false
	e.Spawn("p", nil, func(p *Process) {
		p.FastSimcall()
		if otherRan || e.Now() != 0 {
			t.Errorf("fast path yielded: other ran=%v, now=%g", otherRan, e.Now())
		}
		if k := p.call; k != SimcallNone {
			t.Errorf("fast path left the caller in %v", k)
		}
		st := e.stats
		if st.Fast != 1 || st.Slow != 0 {
			t.Errorf("stats = %+v, want Fast=1 Slow=0", st)
		}
	})
	e.Spawn("other", nil, func(p *Process) { otherRan = true })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWaitActivitySlowPath: a pending wait parks the caller in the
// wait-activity simcall (one slow simcall) until the action's owner
// wakes it, and the caller receives the outcome it was woken with.
func TestWaitActivitySlowPath(t *testing.T) {
	e := New()
	sentinel := errors.New("outcome")
	var waiter *Process
	var wokeAt float64
	e.Spawn("p", nil, func(p *Process) {
		waiter = p
		if err := p.BlockOn(SimcallWaitActivity); err != sentinel {
			t.Errorf("BlockOn(wait-activity) = %v, want sentinel", err)
		}
		wokeAt = e.Now()
	})
	e.At(2, func() {
		if k := waiter.call; k != SimcallWaitActivity {
			t.Errorf("waiter parked in %v, want wait-activity", k)
		}
		e.Wake(waiter, sentinel)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokeAt != 2 {
		t.Errorf("woke at %g, want 2", wokeAt)
	}
	if st := e.stats; st.Slow != 1 || st.Fast != 0 {
		t.Errorf("stats = %+v, want Fast=0 Slow=1", st)
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
		if k := sleeper.call; k != SimcallSleep {
			t.Errorf("sleeper stuck in %v, want sleep", k)
		}
		if k := recver.call; k != SimcallRecv {
			t.Errorf("recver stuck in %v, want recv", k)
		}
		e.Wake(recver, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sleeper.call != SimcallNone {
		t.Errorf("done process still reports %v", sleeper.call)
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
		p.BlockOn(SimcallWait)
		t.Error("killed process continued after BlockOn")
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
	if victim.err != ErrKilled {
		t.Errorf("victim.err = %v, want ErrKilled (stale wake must not shadow it)", victim.err)
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
		p.BlockOn(SimcallWait)
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
	if victim.err != ErrKilled {
		t.Errorf("victim.err = %v, want ErrKilled", victim.err)
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
		gotErr = p.BlockOn(SimcallWait)
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
		t.Errorf("BlockOn returned %v, want sentinel (wake re-delivered on resume)", gotErr)
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
		if err := p.BlockOn(SimcallWait); err != nil {
			t.Errorf("w1: %v", err)
		}
		woke1 = e.Now()
	})
	e.Spawn("w2", nil, func(p *Process) {
		w2 = p
		if err := p.BlockOn(SimcallWait); err != nil {
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
		if err := p.BlockOn(SimcallWait); err != nil {
			t.Errorf("BlockOn: %v", err)
		}
		wokeAt = e.Now()
		if p.suspended {
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
	if victim.err != ErrKilled {
		t.Errorf("victim.err = %v, want ErrKilled", victim.err)
	}
	if e.Now() != 1 {
		t.Errorf("ended at %g, want 1", e.Now())
	}
}
