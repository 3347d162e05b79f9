package msg

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/pool/pooltest"
	"repro/internal/surf"
	"repro/internal/trace"
)

// exact disables model calibration so tests can assert exact durations.
func exact() surf.Config { return surf.Config{BandwidthFactor: 1, LatencyFactor: 1} }

// lanPlatform: client and server joined by a 1e8 B/s, 1 ms link; both
// 1 Gflop/s.
func lanPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	p := platform.New()
	for _, n := range []string{"client", "server"} {
		if err := p.AddHost(&platform.Host{Name: n, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	l := &platform.Link{Name: "lan", Bandwidth: 1e8, Latency: 0.001}
	if err := p.AddRoute("client", "server", []*platform.Link{l}); err != nil {
		t.Fatal(err)
	}
	return p
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTaskCreation(t *testing.T) {
	task := NewTask("t", 30e6, 3.2e6)
	if task.Name != "t" || task.Flops != 30e6 || task.Bytes != 3.2e6 {
		t.Errorf("task = %+v", task)
	}
	neg := NewTask("n", -1, -2)
	if neg.Flops != 0 || neg.Bytes != 0 {
		t.Error("negative payloads not clamped")
	}
	if task.Source() != nil || task.Sender() != nil {
		t.Error("fresh task has source/sender")
	}
}

func TestExecuteDuration(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	env.NewProcess("worker", "client", func(p *Process) error {
		return p.Execute(NewTask("work", 2e9, 0)) // 2 Gflop at 1 Gflop/s
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(env.Now(), 2, 1e-9) {
		t.Errorf("finished at %g, want 2", env.Now())
	}
}

func TestPutGetTransfersTask(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var got *Task
	env.NewProcess("sender", "client", func(p *Process) error {
		task := NewTask("data", 0, 1e8) // 1 s at 1e8 B/s + 1 ms
		task.Data = "payload"
		return p.Put(task, "server", 22)
	})
	env.NewProcess("receiver", "server", func(p *Process) error {
		var err error
		got, err = p.Get(22)
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got == nil || got.Name != "data" || got.Data != "payload" {
		t.Fatalf("received %+v", got)
	}
	if got.Source() == nil || got.Source().Name != "client" {
		t.Error("task source not set")
	}
	if got.Sender() == nil || got.Sender().Name() != "sender" {
		t.Error("task sender not set")
	}
	if !approx(env.Now(), 1.001, 1e-6) {
		t.Errorf("finished at %g, want 1.001", env.Now())
	}
}

func TestGetBeforePutRendezvous(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var recvDone, sendDone float64
	env.NewProcess("receiver", "server", func(p *Process) error {
		_, err := p.Get(5)
		recvDone = p.Now()
		return err
	})
	env.NewProcess("sender", "client", func(p *Process) error {
		p.Sleep(2) // receiver waits 2 s before the transfer starts
		err := p.Put(NewTask("x", 0, 1e8), "server", 5)
		sendDone = p.Now()
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := 3.001 // 2 s wait + 1 s transfer + 1 ms latency
	if !approx(recvDone, want, 1e-6) || !approx(sendDone, want, 1e-6) {
		t.Errorf("recv/send done at %g/%g, want %g", recvDone, sendDone, want)
	}
}

func TestChannelsAreIndependent(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var got22, got23 *Task
	env.NewProcess("recv22", "server", func(p *Process) error {
		var err error
		got22, err = p.Get(22)
		return err
	})
	env.NewProcess("recv23", "server", func(p *Process) error {
		var err error
		got23, err = p.Get(23)
		return err
	})
	env.NewProcess("sender", "client", func(p *Process) error {
		if err := p.Put(NewTask("a", 0, 1e3), "server", 23); err != nil {
			return err
		}
		return p.Put(NewTask("b", 0, 1e3), "server", 22)
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got22 == nil || got22.Name != "b" {
		t.Errorf("channel 22 got %+v", got22)
	}
	if got23 == nil || got23.Name != "a" {
		t.Errorf("channel 23 got %+v", got23)
	}
}

func TestPaperClientServerExchange(t *testing.T) {
	// The paper's MSG example: client sends a 30 MFlop / 3.2 MB task to
	// the server, executes a local 10.5 MFlop task, then waits for a
	// 10 KB ack.
	env := NewEnvironment(lanPlatform(t), exact())
	env.NewProcess("server", "server", func(p *Process) error {
		p.Daemonize()
		for {
			task, err := p.Get(22)
			if err != nil {
				return err
			}
			if err := p.Execute(task); err != nil {
				return err
			}
			ack := NewTask("Ack", 0, 0.01e6)
			if err := p.Put(ack, task.Source().Name, 23); err != nil {
				return err
			}
		}
	})
	env.NewProcess("client", "client", func(p *Process) error {
		remote := NewTask("Remote", 30e6, 3.2e6)
		if err := p.Put(remote, "server", 22); err != nil {
			return err
		}
		local := NewTask("Local", 10.5e6, 3.2e6)
		if err := p.Execute(local); err != nil {
			return err
		}
		_, err := p.Get(23)
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// put: 1ms + 3.2e6/1e8 = 0.033 s; server exec 0.03 s;
	// client local exec 0.0105 s (parallel with server);
	// ack: 1ms + 1e4/1e8 = 0.0011 s.
	// Client timeline: 0.033 + max(0.0105 elapsed before ack wait)…
	// ack sent at 0.033+0.03 = 0.063, arrives 0.0641.
	if !approx(env.Now(), 0.0641, 1e-4) {
		t.Errorf("finished at %g, want ~0.0641", env.Now())
	}
}

func TestGetTimeout(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var gotErr error
	env.NewProcess("recv", "server", func(p *Process) error {
		_, gotErr = p.GetWithTimeout(9, 1.5)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, ErrTimeout) {
		t.Errorf("Get = %v, want ErrTimeout", gotErr)
	}
	if !approx(env.Now(), 1.5, 1e-9) {
		t.Errorf("timed out at %g, want 1.5", env.Now())
	}
}

func TestPutTimeout(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var gotErr error
	env.NewProcess("send", "client", func(p *Process) error {
		gotErr = p.PutWithTimeout(NewTask("x", 0, 1), "server", 9, 2)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, ErrTimeout) {
		t.Errorf("Put = %v, want ErrTimeout", gotErr)
	}
}

func TestTimeoutNotFiredOnSuccess(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	env.NewProcess("recv", "server", func(p *Process) error {
		task, err := p.GetWithTimeout(1, 10)
		if err != nil || task.Name != "ok" {
			t.Errorf("Get = %v, %v", task, err)
		}
		return p.Sleep(20) // outlive the (canceled) timeout
	})
	env.NewProcess("send", "client", func(p *Process) error {
		return p.Put(NewTask("ok", 0, 1e3), "server", 1)
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestInFlightTimeoutCancelsTransfer(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var sendErr, recvErr error
	env.NewProcess("recv", "server", func(p *Process) error {
		_, recvErr = p.GetWithTimeout(1, 0.5) // transfer needs ~1 s
		return nil
	})
	env.NewProcess("send", "client", func(p *Process) error {
		sendErr = p.Put(NewTask("big", 0, 1e8), "server", 1)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if recvErr == nil || sendErr == nil {
		t.Errorf("recv/send errs = %v/%v, want both non-nil", recvErr, sendErr)
	}
}

func TestProcessSuspendResumeFreezesExecution(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var worker *Process
	var doneAt float64
	env.NewProcess("worker", "client", func(p *Process) error {
		worker = p
		err := p.Execute(NewTask("w", 2e9, 0)) // 2 s nominal
		doneAt = p.Now()
		return err
	})
	env.NewProcess("ctl", "server", func(p *Process) error {
		p.Sleep(1)
		worker.Suspend()
		p.Sleep(3)
		worker.Resume()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(doneAt, 5, 1e-6) {
		t.Errorf("done at %g, want 5 (1 work + 3 frozen + 1 work)", doneAt)
	}
}

func TestKillProcess(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var victim *Process
	var victimErr error
	env.NewProcess("victim", "server", func(p *Process) error {
		victim = p
		p.cp.OnExit(func(err error) { victimErr = err })
		_, err := p.Get(1)
		return err
	})
	env.NewProcess("killer", "client", func(p *Process) error {
		p.Sleep(1)
		victim.Kill()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(victimErr, ErrKilled) {
		t.Errorf("victim ended with %v, want ErrKilled", victimErr)
	}
}

func TestHostFailureKillsProcesses(t *testing.T) {
	pf := lanPlatform(t)
	pf.Host("server").StateTrace = trace.MustNew("st",
		[]trace.Event{{Time: 1, Value: 0}}, 0)
	env := NewEnvironment(pf, exact())
	env.NewProcess("doomed", "server", func(p *Process) error {
		return p.Sleep(100)
	})
	env.NewProcess("other", "client", func(p *Process) error {
		return p.Sleep(2)
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(env.Now(), 2, 1e-9) {
		t.Errorf("simulation ended at %g, want 2 (doomed killed at 1)", env.Now())
	}
}

func TestSpawnFromProcess(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	childRan := false
	env.NewProcess("parent", "client", func(p *Process) error {
		p.Sleep(1)
		_, err := p.Spawn("child", "server", func(c *Process) error {
			childRan = true
			if !approx(c.Now(), 1, 1e-9) {
				t.Errorf("child started at %g, want 1", c.Now())
			}
			return nil
		})
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !childRan {
		t.Error("child did not run")
	}
}

func TestNewProcessUnknownHost(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	if _, err := env.NewProcess("p", "ghost", func(*Process) error { return nil }); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestPutUnknownHost(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var gotErr error
	env.NewProcess("p", "client", func(p *Process) error {
		gotErr = p.Put(NewTask("x", 0, 1), "ghost", 1)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotErr == nil {
		t.Error("Put to unknown host succeeded")
	}
}

func TestPutNilTask(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var gotErr error
	env.NewProcess("p", "client", func(p *Process) error {
		gotErr = p.Put(nil, "server", 1)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotErr == nil {
		t.Error("nil task accepted")
	}
}

func TestAccessors(t *testing.T) {
	pf := lanPlatform(t)
	env := NewEnvironment(pf, exact())
	if env.model.Platform() != pf || env.Engine() == nil || env.Model() == nil {
		t.Error("environment accessors wrong")
	}
	if env.HostByName("client") == nil || env.HostByName("ghost") != nil {
		t.Error("HostByName wrong")
	}
	env.NewProcess("p", "client", func(p *Process) error {
		if p.env != env || p.Host().Name != "client" {
			t.Error("process accessors wrong")
		}
		if p.Name() != "p" || p.pid == 0 || p.cp == nil {
			t.Error("identity accessors wrong")
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeadlockReported(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	env.NewProcess("stuck", "server", func(p *Process) error {
		_, err := p.Get(1)
		return err
	})
	err := env.Run()
	var dl *core.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
}

// TestDeadlockBesidePeriodicTrace: a periodic availability trace does
// not hide a deadlock. Run reports it instead of replaying the trace
// forever; it runs on a goroutine so a hang fails the test.
func TestDeadlockBesidePeriodicTrace(t *testing.T) {
	pf := lanPlatform(t)
	pf.Host("server").Availability = trace.MustNew("av",
		[]trace.Event{{Time: 0, Value: 1}, {Time: 1, Value: 0.5}}, 2)
	env := NewEnvironment(pf, exact())
	env.NewProcess("stuck", "server", func(p *Process) error {
		_, err := p.Get(1)
		return err
	})
	done := make(chan error, 1)
	go func() { done <- env.Run() }()
	select {
	case err := <-done:
		var dl *core.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("Run = %v, want DeadlockError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still replaying the periodic trace 5 s after starting")
	}
}

// TestDeadlockBesidePeriodicStateTrace: a periodic state trace hides no
// deadlock either, once its host carries no actor, live or waiting to
// respawn. "stuck" waits forever on server while client flaps (down at
// 1, up at 2, every 3 s). Alone, it is reported at once. Beside it, a
// process blocked on client is killed at the first down event and the
// deadlock is reported then; an auto-restart one respawns at the up
// event first, and ends. Run runs on a goroutine so a hang fails the
// test.
func TestDeadlockBesidePeriodicStateTrace(t *testing.T) {
	for _, c := range []struct {
		name    string
		victim  bool // a process blocked on client
		restart bool // ... that auto-restarts and ends in its second life
		at      float64
	}{
		{"untraced host only", false, false, 0},
		{"victim on the traced host", true, false, 1},
		{"auto-restart victim", true, true, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			pf := lanPlatform(t)
			pf.Host("client").StateTrace = trace.MustNew("st",
				[]trace.Event{{Time: 0, Value: 1}, {Time: 1, Value: 0}, {Time: 2, Value: 1}}, 3)
			env := NewEnvironment(pf, exact())
			env.NewProcess("stuck", "server", func(p *Process) error {
				_, err := p.Get(1)
				return err
			})
			lives := 0
			if c.victim {
				v, _ := env.NewProcess("victim", "client", func(p *Process) error {
					if lives++; lives == 2 {
						return nil
					}
					_, err := p.Get(2)
					return err
				})
				v.SetAutoRestart(c.restart)
			}
			done := make(chan error, 1)
			go func() { done <- env.Run() }()
			select {
			case err := <-done:
				var dl *core.DeadlockError
				if !errors.As(err, &dl) || len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck" {
					t.Fatalf("Run = %v, want a DeadlockError naming stuck alone", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run still replaying the periodic state trace 5 s after starting")
			}
			if want := map[bool]int{false: 1, true: 2}[c.restart]; c.victim && lives != want {
				t.Errorf("victim lived %d times, want %d", lives, want)
			}
			if env.Now() != c.at {
				t.Errorf("deadlock reported at %g, want %g", env.Now(), c.at)
			}
		})
	}
}

func TestManyProcessesScale(t *testing.T) {
	// 100 client/server pairs ping-ponging: smoke test for scheduling.
	p := platform.New()
	p.AddHost(&platform.Host{Name: "a", Power: 1e9})
	p.AddHost(&platform.Host{Name: "b", Power: 1e9})
	l := &platform.Link{Name: "l", Bandwidth: 1e9, Latency: 0.0001}
	p.AddRoute("a", "b", []*platform.Link{l})
	const n = 100
	// Each receipt in wake order: its channel and the Float64bits of
	// the instant it landed. All 100 transfers share the link and finish
	// together, so this pins surf's same-instant completion order, with
	// the free lists on and off.
	receipts := pooltest.Replay(t, 1, func() []byte {
		env := NewEnvironment(p, exact())
		var out []byte
		for i := 0; i < n; i++ {
			ch := i
			env.NewProcess("recv", "b", func(pr *Process) error {
				_, err := pr.Get(ch)
				if err == nil {
					out = fmt.Appendf(out, "%d %016x\n", ch, math.Float64bits(pr.Now()))
				}
				return err
			})
			env.NewProcess("send", "a", func(pr *Process) error {
				return pr.Put(NewTask("m", 0, 1e6), "b", ch)
			})
		}
		if err := env.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	})
	if received := bytes.Count(receipts, []byte("\n")); received != n {
		t.Errorf("received %d, want %d", received, n)
	}
	h := fnv.New64a()
	h.Write(receipts)
	if got, want := h.Sum64(), uint64(0xce7237fd3756fabb); got != want {
		t.Errorf("receipt digest %#016x, want %#016x", got, want)
	}
}
