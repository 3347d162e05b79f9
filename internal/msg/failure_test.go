package msg

// Failure-path regression suite: link failure surfacing, kill-unwind
// pool hygiene, auto-restart, Retry, and panic containment — the MSG
// half of the fault-injection subsystem (package faults drives the
// schedules; these tests pin the per-mechanism semantics).

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/surf"
)

// TestInFlightLinkFailure fails the route's link in the middle of a
// transfer: both endpoints must observe ErrLinkFailed — not a hang,
// not ErrTimeout, and not a swallowed nil.
func TestInFlightLinkFailure(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var sendErr, recvErr error
	sendErr = errors.New("sentinel: put never returned")
	recvErr = errors.New("sentinel: get never returned")
	env.NewProcess("sender", "client", func(p *Process) error {
		sendErr = p.Put(NewTask("d", 0, 1e8), "server", 1) // ~1 s transfer
		return sendErr
	})
	env.NewProcess("receiver", "server", func(p *Process) error {
		_, recvErr = p.Get(1)
		return recvErr
	})
	env.Engine().After(0.5, func() {
		if err := env.Model().FailLink("lan"); err != nil {
			t.Errorf("FailLink: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(sendErr, surf.ErrLinkFailed) {
		t.Errorf("sender saw %v, want ErrLinkFailed", sendErr)
	}
	if !errors.Is(recvErr, surf.ErrLinkFailed) {
		t.Errorf("receiver saw %v, want ErrLinkFailed", recvErr)
	}
	if got := env.Now(); got != 0.5 {
		t.Errorf("failure delivered at t=%g, want 0.5", got)
	}
}

// TestKillUnwindRecyclesRendezvous is the kill-churn scrub assertion:
// records abandoned on the unwind path (queued sender, queued receiver,
// each side of an in-flight transfer) must all come back to the free
// lists scrubbed, and repeated churn must not grow the pools — the
// "leaks safely" escape hatch is gone.
func TestKillUnwindRecyclesRendezvous(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())

	const cycles = 6
	var steadySend, steadyRecv int
	_, err := env.NewProcess("driver", "client", func(p *Process) error {
		for i := 0; i < cycles; i++ {
			// (a) sender killed while queued (no receiver ever shows up).
			qs, err := p.Spawn("qs", "client", func(q *Process) error {
				return q.Put(NewTask("x", 0, 1e6), "server", 9)
			})
			if err != nil {
				return err
			}
			// (b) receiver killed while queued.
			qr, err := p.Spawn("qr", "server", func(q *Process) error {
				_, err := q.Get(8)
				return err
			})
			if err != nil {
				return err
			}
			if err := p.Sleep(0.01); err != nil {
				return err
			}
			qs.Kill()
			qr.Kill()

			// (c) sender killed mid-transfer: the delivery completes and
			// ActionDone recycles the abandoned record.
			ts, err := p.Spawn("ts", "client", func(q *Process) error {
				return q.Put(NewTask("y", 0, 1e8), "server", 7)
			})
			if err != nil {
				return err
			}
			if _, err := p.Spawn("tr", "server", func(q *Process) error {
				_, err := q.Get(7)
				return err
			}); err != nil {
				return err
			}
			if err := p.Sleep(0.05); err != nil {
				return err
			}
			ts.Kill()
			if err := p.Sleep(2); err != nil {
				return err
			}

			// (d) receiver killed mid-transfer.
			if _, err := p.Spawn("ts2", "client", func(q *Process) error {
				return q.Put(NewTask("z", 0, 1e8), "server", 6)
			}); err != nil {
				return err
			}
			tr2, err := p.Spawn("tr2", "server", func(q *Process) error {
				_, err := q.Get(6)
				return err
			})
			if err != nil {
				return err
			}
			if err := p.Sleep(0.05); err != nil {
				return err
			}
			tr2.Kill()
			if err := p.Sleep(2); err != nil {
				return err
			}

			if i == 0 {
				steadySend, steadyRecv = env.pools[send].Len(), env.pools[recv].Len()
				continue
			}
			if env.pools[send].Len() != steadySend || env.pools[recv].Len() != steadyRecv {
				t.Errorf("cycle %d: pools %d/%d, steady state %d/%d — kill churn leaks or over-returns",
					i, env.pools[send].Len(), env.pools[recv].Len(), steadySend, steadyRecv)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if env.pools[send].Len() == 0 || env.pools[recv].Len() == 0 {
		t.Fatalf("kill churn recycled nothing (pools %d/%d)", env.pools[send].Len(), env.pools[recv].Len())
	}
	checkScrubbed(t, env)
}

// checkScrubbed fails the test for every pooled record, of either
// direction, that is not the zero value.
func checkScrubbed(t *testing.T, env *Environment) {
	t.Helper()
	for d := range env.pools {
		for i, r := range env.pools[d].Items() {
			if *r != (pending{}) {
				t.Errorf("pooled record %d of direction %d not scrubbed: %+v", i, d, *r)
			}
		}
	}
}

// TestAutoRestart: a process killed by its host failing respawns when
// the host recovers, with its OnFailure hook fired in between and its
// flags inherited by the new incarnation.
func TestAutoRestart(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	starts, failures := 0, 0
	var restartAt float64
	var restarted *Process
	svc, err := env.NewProcess("svc", "server", func(p *Process) error {
		starts++
		if starts == 1 {
			return p.Sleep(100) // first life: killed by the failure at t=1
		}
		restartAt = p.Now()
		restarted = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetAutoRestart(true)
	var firstErr error
	svc.cp.OnExit(func(err error) { firstErr = err })
	svc.OnFailure = func(err error) {
		failures++
		if !errors.Is(err, ErrHostFailed) {
			t.Errorf("OnFailure got %v, want ErrHostFailed", err)
		}
	}
	// A bystander keeps the simulation live across the outage window
	// (restart needs a running simulation to restart into).
	env.NewProcess("bystander", "client", func(p *Process) error { return p.Sleep(5) })
	eng := env.Engine()
	eng.After(1, func() { _ = env.Model().FailHost("server") })
	eng.After(3, func() { _ = env.Model().RestoreHost("server") })
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if starts != 2 || failures != 1 {
		t.Errorf("starts=%d failures=%d, want 2/1", starts, failures)
	}
	if restartAt != 3 {
		t.Errorf("restarted at t=%g, want 3 (host recovery)", restartAt)
	}
	if restarted == nil || !restarted.autoRestart {
		t.Error("restarted incarnation did not inherit the auto-restart flag")
	}
	if !errors.Is(firstErr, ErrKilled) {
		t.Errorf("first incarnation ended with %v, want ErrKilled", firstErr)
	}
}

// TestAutoRestartOffByDefault pins that a plain process stays dead.
func TestAutoRestartOffByDefault(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	starts := 0
	env.NewProcess("svc", "server", func(p *Process) error {
		starts++
		return p.Sleep(100)
	})
	env.NewProcess("bystander", "client", func(p *Process) error { return p.Sleep(5) })
	eng := env.Engine()
	eng.After(1, func() { _ = env.Model().FailHost("server") })
	eng.After(3, func() { _ = env.Model().RestoreHost("server") })
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if starts != 1 {
		t.Errorf("starts=%d, want 1 (no restart without the flag)", starts)
	}
}

// TestRetryBackoff: Retry sleeps its backoff in simulated time between
// bounded attempts and returns the first nil.
func TestRetryBackoff(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	attempts := 0
	var doneAt float64
	env.NewProcess("p", "client", func(p *Process) error {
		err := Retry(p, RetryPolicy{Attempts: 4, Backoff: 0.5}, func() error {
			attempts++
			if attempts < 4 {
				return errors.New("transient")
			}
			return nil
		})
		doneAt = p.Now()
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if attempts != 4 {
		t.Errorf("attempts = %d, want 4", attempts)
	}
	// Three backoffs of 0.5 s each.
	if doneAt != 1.5 {
		t.Errorf("succeeded at t=%g, want 1.5", doneAt)
	}
}

// TestRetryExhausted: the last error comes back after the attempt
// budget is spent.
func TestRetryExhausted(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	attempts := 0
	var got error
	env.NewProcess("p", "client", func(p *Process) error {
		got = Retry(p, RetryPolicy{Attempts: 3, Backoff: 0.1}, func() error {
			attempts++
			return fmt.Errorf("fail %d", attempts)
		})
		return got
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	if got == nil || got.Error() != "fail 3" {
		t.Errorf("Retry = %v, want the last error", got)
	}
}

// TestProcessPanicContained is the acceptance criterion: a deliberately
// panicking MSG process fails alone — the run completes, the other
// processes finish their work, and the panic is recorded with a stack.
func TestProcessPanicContained(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	bomb, _ := env.NewProcess("bomb", "client", func(p *Process) error {
		_ = p.Sleep(0.5)
		panic("worker bug")
	})
	var exitErr error
	bomb.cp.OnExit(func(err error) { exitErr = err })
	var got *Task
	env.NewProcess("sender", "client", func(p *Process) error {
		return p.Put(NewTask("d", 0, 1e8), "server", 1)
	})
	env.NewProcess("receiver", "server", func(p *Process) error {
		var err error
		got, err = p.Get(1)
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v (a process panic must be contained)", err)
	}
	if got == nil || got.Name != "d" {
		t.Errorf("the surviving exchange did not complete: %+v", got)
	}
	if n := metric(t, env, "core.fault_panics"); n != 1 {
		t.Fatalf("%g contained panics, want 1", n)
	}
	var pe *core.PanicError
	if !errors.As(exitErr, &pe) {
		t.Fatalf("bomb ended with %v, want a *core.PanicError", exitErr)
	}
	if pe.Name != "bomb" || pe.Value != "worker bug" {
		t.Errorf("recorded panic = {%q %v}", pe.Name, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "failure_test.go") {
		t.Errorf("panic stack does not point at the panic site:\n%s", pe.Stack)
	}
}

// TestPanicMidRendezvousRecyclesRecord: a panic that unwinds out of a
// blocked Put takes the same abandon path as a kill — the record is
// recycled, the peer is not left dangling forever.
func TestPanicMidRendezvousRecyclesRecord(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	env.NewProcess("bomb", "client", func(p *Process) error {
		err := p.PutWithTimeout(NewTask("x", 0, 1e6), "server", 3, 0.5)
		if errors.Is(err, ErrTimeout) {
			panic("gave up") // unwind with the record already dequeued
		}
		return err
	})
	env.NewProcess("bystander", "server", func(p *Process) error { return p.Sleep(2) })
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := metric(t, env, "core.fault_panics"); n != 1 {
		t.Fatalf("want 1 contained panic, got %g", n)
	}
	checkScrubbed(t, env)
}

// TestMixedFormHostFailureOrder interleaves goroutine processes and
// chains by PID on one host, fails the host and recovers it: hooks,
// kills and restarts follow PID order across the two forms. A chain
// dies inline in the sweep (its OnExit follows its OnFailure directly);
// a goroutine process is only queued there and unwinds once the sweep
// is over, still in PID order.
func TestMixedFormHostFailureOrder(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	rec, log := chainRecorder(env)
	lives := map[string][]int{} // name -> PID of each incarnation
	spec := NewChain().Sleep(100).MustBuild()
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("a%d", i)
		onFailure := func(err error) { rec(fmt.Sprintf("failure %s %v", name, err)) }
		onExit := func(err error) { rec(fmt.Sprintf("exit %s %v", name, err)) }
		if i%2 == 1 {
			p, err := env.NewProcess(name, "server", func(p *Process) error {
				lives[name] = append(lives[name], p.pid)
				return p.Sleep(100)
			})
			if err != nil {
				t.Fatal(err)
			}
			p.SetAutoRestart(true)
			p.OnFailure = onFailure
			p.cp.OnExit(onExit)
			continue
		}
		c, err := env.StartChain(name, "server", spec, &ChainConfig{
			AutoRestart: true, OnFailure: onFailure, OnExit: onExit,
		})
		if err != nil {
			t.Fatal(err)
		}
		lives[name] = append(lives[name], c.pid)
		env.Engine().After(3, func() { lives[name] = append(lives[name], c.pid) })
	}
	env.NewProcess("bystander", "client", func(p *Process) error { return p.Sleep(5) })
	eng := env.Engine()
	eng.After(1, func() { _ = env.Model().FailHost("server") })
	eng.After(2, func() { _ = env.Model().RestoreHost("server") })
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	at := func(ts float64, s string) string { return fmt.Sprintf("%x %s", ts, s) }
	want := []string{
		at(1, "failure a1 "+ErrHostFailed.Error()),
		at(1, "failure a2 "+ErrHostFailed.Error()),
		at(1, "exit a2 "+ErrKilled.Error()),
		at(1, "failure a3 "+ErrHostFailed.Error()),
		at(1, "failure a4 "+ErrHostFailed.Error()),
		at(1, "exit a4 "+ErrKilled.Error()),
		at(1, "exit a1 "+ErrKilled.Error()),
		at(1, "exit a3 "+ErrKilled.Error()),
		// Second lives run to completion. A re-armed chain keeps its
		// OnExit; a respawned process is a fresh kernel process and
		// inherits only OnFailure.
		at(102, "exit a2 <nil>"),
		at(102, "exit a4 <nil>"),
	}
	diffLogs(t, "got", *log, "want", want)
	// First lives took PIDs 1..4 in creation order; the restart queue
	// replays the kill order, so the second lives take 6..9 (5 is the
	// bystander) in the same a1..a4 order regardless of form.
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("a%d", i)
		if l := lives[name]; len(l) != 2 || l[0] != i || l[1] != 5+i {
			t.Errorf("%s lived as PIDs %v, want [%d %d]", name, l, i, 5+i)
		}
	}
}

// TestProcessBodyErrorRecorded: a body that returns an error terminates
// its process with that cause — Core().Err() and OnExit report it —
// just as a chain whose step fails reports the step error to OnExit.
func TestProcessBodyErrorRecorded(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	boom := errors.New("body failed")
	var exitErr = errors.New("sentinel: OnExit never ran")
	p, err := env.NewProcess("failing", "client", func(p *Process) error {
		if err := p.Sleep(1); err != nil {
			return err
		}
		return boom
	})
	if err != nil {
		t.Fatal(err)
	}
	p.cp.OnExit(func(err error) { exitErr = err })
	var chainErr error
	if _, err := env.StartChain("failing-chain", "client", NewChain().Sleep(1).PutReg("server", 1).MustBuild(),
		&ChainConfig{OnExit: func(err error) { chainErr = err }}); err != nil {
		t.Fatal(err)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if exitErr != boom {
		t.Errorf("process ended with %v, want %v", exitErr, boom)
	}
	if chainErr == nil {
		t.Error("chain with a failing step reported a nil termination cause")
	}
}
