package msg

// Tests for declarative activity chains: builder validation, loop and
// branch constructs, bit-identical equivalence with goroutine
// processes (and of pooled vs fresh chain records), kill and
// auto-restart semantics, deadlock reporting, and pool hygiene.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/pool/pooltest"
)

// rec builds an event recorder whose entries embed the exact (hex
// float) timestamp: two runs agree only if they are bit-identical.
func chainRecorder(env *Environment) (func(string), *[]string) {
	log := &[]string{}
	return func(tag string) {
		*log = append(*log, fmt.Sprintf("%x %s", env.Now(), tag))
	}, log
}

// fresh is the Do step before a PutReg that sends a new task each pass.
func fresh(name string, bytes float64) func(*ChainProc) {
	return func(c *ChainProc) { c.SetTask(NewTask(name, 0, bytes)) }
}

func TestChainBuilderValidation(t *testing.T) {
	if _, err := NewChain().Build(); err == nil {
		t.Error("empty chain built")
	}
	if _, err := NewChain().Loop(2).Compute("w", 1).Build(); err == nil {
		t.Error("unclosed Loop built")
	}
	if _, err := NewChain().Compute("w", 1).End().Build(); err == nil {
		t.Error("End without Loop built")
	}
	if _, err := NewChain().Loop(3).Sleep(1).End().Build(); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
}

// TestChainLoopConstructs pins counted loops, nesting and StopIf
// against a pure Do/Sleep chain (no rendezvous, exact count).
func TestChainLoopConstructs(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var outer, inner, after int
	spec := NewChain().
		Loop(3).
		Do(func(c *ChainProc) { outer++ }).
		Loop(4).
		Do(func(c *ChainProc) { inner++ }).
		Sleep(0.01).
		End().
		End().
		Do(func(c *ChainProc) { after++ }).
		Loop(0).
		Do(func(c *ChainProc) { inner++; c.SetTask(NewTask("", 0, float64(inner))) }).
		StopIf(func(t *Task) bool { return t.Bytes == 14 }). // fires at the 2nd pass
		Sleep(0.01).
		End().
		Do(func(c *ChainProc) { after++ }). // never runs: StopIf ends the chain
		MustBuild()
	if _, err := env.StartChain("loops", "client", spec, nil); err != nil {
		t.Fatal(err)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Outer runs 3 times and inner 4 per outer pass (12); the forever
	// loop adds two passes before its StopIf ends the chain.
	if outer != 3 || inner != 14 || after != 1 {
		t.Errorf("outer=%d inner=%d after=%d, want 3/14/1", outer, inner, after)
	}
}

// TestChainComputeDuration mirrors TestExecuteDuration in chain form.
func TestChainComputeDuration(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	spec := NewChain().Compute("work", 2e9).MustBuild() // 2 Gflop at 1 Gflop/s
	var exitErr = errors.New("sentinel: OnExit never ran")
	if _, err := env.StartChain("worker", "client", spec, &ChainConfig{
		OnExit: func(err error) { exitErr = err },
	}); err != nil {
		t.Fatal(err)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if exitErr != nil {
		t.Errorf("OnExit err = %v", exitErr)
	}
	if !approx(env.Now(), 2, 1e-9) {
		t.Errorf("finished at %g, want 2", env.Now())
	}
}

// TestChainSpawnedAccounting: chains are logical process starts with
// zero goroutines behind them.
func TestChainSpawnedAccounting(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	spec := NewChain().Sleep(0.1).MustBuild()
	for i := 0; i < 5; i++ {
		if _, err := env.StartChain(fmt.Sprintf("c%d", i), "client", spec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	eng := env.Engine()
	if eng.Spawned() != 5 {
		t.Errorf("Spawned() = %d, want 5", eng.Spawned())
	}
	if eng.GoroutineSpawns() != 0 {
		t.Errorf("GoroutineSpawns() = %d, want 0", eng.GoroutineSpawns())
	}
	if eng.GoroutinesPeak() != 0 {
		t.Errorf("GoroutinesPeak() = %d, want 0", eng.GoroutinesPeak())
	}
	if env.LiveChains() != 0 {
		t.Errorf("LiveChains() = %d after Run", env.LiveChains())
	}
}

// chainPairWorkload runs the same staggered multi-pair send/compute
// workload in either form and returns its bit-exact event log.
// Sender i: sleep i*stagger, then rounds×(put 1 MB; compute 2 MFlop).
// Receiver i: rounds×(get; execute the received task's 3 MFlop).
func chainPairWorkload(t *testing.T, declarative bool, pairs, rounds int, stagger float64) []string {
	t.Helper()
	env := NewEnvironment(lanPlatform(t), exact())
	rec, log := chainRecorder(env)
	for i := 0; i < pairs; i++ {
		i := i
		ch := i + 1
		delay := float64(i) * stagger
		tname := fmt.Sprintf("t%d", i)
		if declarative {
			send := NewChain().
				Sleep(delay).
				Do(func(c *ChainProc) { c.SetTask(NewTask(tname, 3e6, 1e6)) }).
				Loop(rounds).
				PutReg("server", ch).
				Do(func(c *ChainProc) { rec(fmt.Sprintf("sent%d", i)) }).
				Compute("w", 2e6).
				Do(func(c *ChainProc) { rec(fmt.Sprintf("scomp%d", i)) }).
				End().
				MustBuild()
			recv := NewChain().
				Loop(rounds).
				Get(ch).
				Do(func(c *ChainProc) { rec(fmt.Sprintf("got%d %s", i, c.Task().Name)) }).
				ComputeTask().
				Do(func(c *ChainProc) { rec(fmt.Sprintf("rcomp%d", i)) }).
				End().
				MustBuild()
			if _, err := env.StartChain(fmt.Sprintf("send%d", i), "client", send, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := env.StartChain(fmt.Sprintf("recv%d", i), "server", recv, nil); err != nil {
				t.Fatal(err)
			}
			continue
		}
		env.NewProcess(fmt.Sprintf("send%d", i), "client", func(p *Process) error {
			if err := p.Sleep(delay); err != nil {
				return err
			}
			task := NewTask(tname, 3e6, 1e6)
			w := NewTask("w", 2e6, 0)
			for r := 0; r < rounds; r++ {
				if err := p.Put(task, "server", ch); err != nil {
					return err
				}
				rec(fmt.Sprintf("sent%d", i))
				if err := p.Execute(w); err != nil {
					return err
				}
				rec(fmt.Sprintf("scomp%d", i))
			}
			return nil
		})
		env.NewProcess(fmt.Sprintf("recv%d", i), "server", func(p *Process) error {
			for r := 0; r < rounds; r++ {
				task, err := p.Get(ch)
				if err != nil {
					return err
				}
				rec(fmt.Sprintf("got%d %s", i, task.Name))
				if err := p.Execute(task); err != nil {
					return err
				}
				rec(fmt.Sprintf("rcomp%d", i))
			}
			return nil
		})
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run(declarative=%v): %v", declarative, err)
	}
	return *log
}

func diffLogs(t *testing.T, labelA string, a []string, labelB string, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s produced %d events, %s %d", labelA, len(a), labelB, len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverged:\n  %s: %s\n  %s: %s", i, labelA, a[i], labelB, b[i])
		}
	}
}

// TestChainGoroutineEquivalence is the tentpole contract: the same
// workload expressed as declarative chains and as goroutine processes
// produces a bit-identical event log — both in a staggered schedule
// and in a lockstep one where every pair completes at the same
// instants (exercising the same-instant batch path).
func TestChainGoroutineEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stagger float64
	}{
		{"staggered", 0.013},
		{"lockstep", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			goro := chainPairWorkload(t, false, 3, 4, tc.stagger)
			decl := chainPairWorkload(t, true, 3, 4, tc.stagger)
			if len(goro) == 0 {
				t.Fatal("workload produced no events")
			}
			diffLogs(t, "goroutine", goro, "chain", decl)
		})
	}
}

// TestChainDeterminism replays the declarative pair workload five times
// pooled and five times fresh: every run must produce the bit-identical
// event log (the repo-wide replayability contract, extended to the
// processless form).
func TestChainDeterminism(t *testing.T) {
	pooltest.Replay(t, 5, func() []byte {
		return []byte(strings.Join(chainPairWorkload(t, true, 3, 4, 0.013), "\n"))
	})
}

// TestChainPoolingEquivalence replays a chain-churn workload (waves of
// short chains recycled through the pool, started from OnExit) with
// pooling on and off: recycled ChainProcs and rendezvous records must
// be unobservable.
func TestChainPoolingEquivalence(t *testing.T) {
	run := func(pooled bool) []string {
		defer func(old bool) { pool.Enabled = old }(pool.Enabled)
		pool.Enabled = pooled
		env := NewEnvironment(lanPlatform(t), exact())
		rec, log := chainRecorder(env)
		spec := NewChain().
			Sleep(0.01).
			Compute("w", 1e6).
			MustBuild()
		const waves = 5
		var launch func(wave int)
		launch = func(wave int) {
			if wave >= waves {
				return
			}
			for i := 0; i < 3; i++ {
				i := i
				name := fmt.Sprintf("c%d.%d", wave, i)
				if _, err := env.StartChain(name, "client", spec, &ChainConfig{
					OnExit: func(err error) {
						rec(fmt.Sprintf("exit %s %v", name, err))
						if i == 0 {
							launch(wave + 1)
						}
					},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		launch(0)
		if err := env.Run(); err != nil {
			t.Fatalf("Run(pool=%v): %v", pooled, err)
		}
		return *log
	}
	pooled := run(true)
	fresh := run(false)
	if len(pooled) != waves3(5) {
		t.Fatalf("pooled run produced %d events, want %d", len(pooled), waves3(5))
	}
	diffLogs(t, "pooled", pooled, "fresh", fresh)
}

func waves3(waves int) int { return waves * 3 }

// TestChainMixedRendezvous crosses the forms. "farm": a goroutine
// master farms tasks to a declarative worker, poison pill included —
// the hybrid shape examples/masterworker uses. The other two cases pin
// the completion order of a mixed pair (chain sender → goroutine
// receiver, and the reverse): the goroutine endpoint's wake is queued
// BEFORE the chain endpoint advances, so whatever the chain's next
// steps make runnable in the same instant — here a suspended bystander
// it resumes, right before a follow-up Put — runs after the peer.
func TestChainMixedRendezvous(t *testing.T) {
	t.Run("farm", func(t *testing.T) {
		env := NewEnvironment(lanPlatform(t), exact())
		var handled int
		var workerErr = errors.New("sentinel")
		worker := NewChain().
			Loop(0). // forever, until the poison pill stops the chain
			Get(1).
			StopIf(func(task *Task) bool { return task.Data == "stop" }).
			ComputeTask().
			Do(func(c *ChainProc) { handled++ }).
			End().
			MustBuild()
		if _, err := env.StartChain("worker", "server", worker, &ChainConfig{
			OnExit: func(err error) { workerErr = err },
		}); err != nil {
			t.Fatal(err)
		}
		env.NewProcess("master", "client", func(p *Process) error {
			for i := 0; i < 4; i++ {
				if err := p.Put(NewTask(fmt.Sprintf("job%d", i), 1e6, 1e5), "server", 1); err != nil {
					return err
				}
			}
			stop := NewTask("poison", 0, 1)
			stop.Data = "stop"
			return p.Put(stop, "server", 1)
		})
		if err := env.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if handled != 4 {
			t.Errorf("worker handled %d tasks, want 4", handled)
		}
		if workerErr != nil {
			t.Errorf("worker OnExit err = %v, want nil (StopIf is a normal exit)", workerErr)
		}
		if env.LiveChains() != 0 {
			t.Errorf("LiveChains() = %d", env.LiveChains())
		}
	})
	for _, chainSends := range []bool{true, false} {
		chainSends := chainSends
		name := "order/goroutine-to-chain"
		if chainSends {
			name = "order/chain-to-goroutine"
		}
		t.Run(name, func(t *testing.T) {
			env := NewEnvironment(lanPlatform(t), exact())
			rec, log := chainRecorder(env)
			// The bystander parks itself, is resumed by the chain, and
			// takes the chain's follow-up message.
			bystander, err := env.NewProcess("bystander", "client", func(p *Process) error {
				p.Suspend()
				rec("bystander resumed")
				_, err := p.Get(2)
				rec("bystander got follow-up")
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			b := NewChain()
			if chainSends {
				b.Do(fresh("m1", 1e5)).PutReg("client", 1)
			} else {
				b.Get(1)
			}
			spec := b.
				Do(func(c *ChainProc) { rec("chain past m1"); bystander.Resume() }).
				Do(fresh("follow-up", 1e5)).PutReg("client", 2).
				Do(func(c *ChainProc) { rec("chain past follow-up") }).
				MustBuild()
			if _, err := env.StartChain("chain", "server", spec, nil); err != nil {
				t.Fatal(err)
			}
			env.NewProcess("peer", "client", func(p *Process) error {
				var err error
				if chainSends {
					_, err = p.Get(1)
				} else {
					err = p.Put(NewTask("m1", 0, 1e5), "server", 1)
				}
				rec("peer past m1")
				return err
			})
			if err := env.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			const hop = 0.001 + 1e5/1e8 // latency + 100 kB at 1e8 B/s
			want := []string{
				fmt.Sprintf("%x chain past m1", hop),
				fmt.Sprintf("%x peer past m1", hop),
				fmt.Sprintf("%x bystander resumed", hop),
				fmt.Sprintf("%x chain past follow-up", 2*hop),
				fmt.Sprintf("%x bystander got follow-up", 2*hop),
			}
			diffLogs(t, "got", *log, "want", want)
		})
	}
}

// TestChainKill kills chains blocked on each step kind and checks the
// unwind: records dequeued, actions canceled, OnExit(ErrKilled), no
// live chains left.
func TestChainKill(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	eng := env.Engine()
	var exits []string
	onExit := func(name string) *ChainConfig {
		return &ChainConfig{OnExit: func(err error) {
			exits = append(exits, fmt.Sprintf("%s %v", name, err))
		}}
	}
	// Blocked in Get with no sender in sight.
	starved := NewChain().Get(5).MustBuild()
	cGet, err := env.StartChain("starved", "server", starved, onExit("starved"))
	if err != nil {
		t.Fatal(err)
	}
	// Blocked mid-compute.
	busy := NewChain().Compute("long", 5e9).MustBuild()
	cExec, err := env.StartChain("busy", "client", busy, onExit("busy"))
	if err != nil {
		t.Fatal(err)
	}
	// Blocked mid-sleep.
	dozing := NewChain().Sleep(100).MustBuild()
	cSleep, err := env.StartChain("dozing", "client", dozing, onExit("dozing"))
	if err != nil {
		t.Fatal(err)
	}
	eng.After(0.5, func() {
		cGet.Kill()
		cExec.Kill()
		cSleep.Kill()
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{
		"starved core: process killed",
		"busy core: process killed",
		"dozing core: process killed",
	}
	if len(exits) != len(want) {
		t.Fatalf("exits = %v", exits)
	}
	for i := range want {
		if exits[i] != want[i] {
			t.Errorf("exit %d = %q, want %q", i, exits[i], want[i])
		}
	}
	if env.LiveChains() != 0 {
		t.Errorf("LiveChains() = %d", env.LiveChains())
	}
	if got := len(env.hosts["server"].mailbox(5).q); got != 0 {
		t.Errorf("killed receiver left %d queued records", got)
	}
	if !approx(env.Now(), 0.5, 1e-9) {
		t.Errorf("ended at %g, want 0.5", env.Now())
	}
}

// TestChainKillMidTransfer kills the chain sender of an in-flight
// matched transfer: like a killed goroutine sender, the transfer keeps
// flowing and the receiver still gets the task.
func TestChainKillMidTransfer(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	send := NewChain().Do(fresh("big", 1e8)).PutReg("server", 1).MustBuild() // ~1 s transfer
	var chainErr error
	cs, err := env.StartChain("sender", "client", send, &ChainConfig{
		OnExit: func(err error) { chainErr = err },
	})
	if err != nil {
		t.Fatal(err)
	}
	var got *Task
	var recvErr error
	env.NewProcess("receiver", "server", func(p *Process) error {
		got, recvErr = p.Get(1)
		return recvErr
	})
	env.Engine().After(0.5, func() { cs.Kill() })
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(chainErr, ErrKilled) {
		t.Errorf("chain OnExit err = %v, want ErrKilled", chainErr)
	}
	if recvErr != nil || got == nil || got.Name != "big" {
		t.Errorf("receiver got (%v, %v), want the task despite the kill", got, recvErr)
	}
}

// TestChainDeadlockReport: a chain starved forever must show up by
// name (with its blocked simcall) in the DeadlockError, even though no
// goroutine is blocked.
func TestChainDeadlockReport(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	starved := NewChain().Get(9).MustBuild()
	if _, err := env.StartChain("starved", "server", starved, nil); err != nil {
		t.Fatal(err)
	}
	err := env.Run()
	var dl *core.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run returned %v, want DeadlockError", err)
	}
	found := false
	for i, n := range dl.Blocked {
		if n == "starved" && dl.Calls[i] == core.SimcallRecv {
			found = true
		}
	}
	if !found {
		t.Errorf("deadlock report %v / %v does not name the starved chain", dl.Blocked, dl.Calls)
	}
}

// TestChainAutoRestart fails the host mid-compute and checks the full
// declarative fault cycle: the failing action parks the chain, the
// sweep kills it (OnFailure, OnExit(ErrKilled)), recovery re-arms it
// from step 0 under a fresh PID, and it completes on the second life.
func TestChainAutoRestart(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	eng := env.Engine()
	rec, log := chainRecorder(env)
	spec := NewChain().
		Compute("a", 1.5e9). // 1.5 s on the 1 Gflop/s host
		Do(func(c *ChainProc) { rec("a done") }).
		Sleep(0.2).
		Do(func(c *ChainProc) { rec("b done") }).
		MustBuild()
	var pids []int
	cp, err := env.StartChain("victim", "server", spec, &ChainConfig{
		AutoRestart: true,
		OnExit:      func(err error) { rec(fmt.Sprintf("exit %v", err)) },
		OnFailure:   func(err error) { rec(fmt.Sprintf("failure %v", err)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	pids = append(pids, cp.PID())
	// A bystander keeps the simulation alive across the outage window.
	clock := NewChain().Sleep(10).MustBuild()
	if _, err := env.StartChain("clock", "client", clock, nil); err != nil {
		t.Fatal(err)
	}
	eng.After(1, func() { _ = env.Model().FailHost("server") })
	eng.After(3, func() {
		_ = env.Model().RestoreHost("server")
		pids = append(pids, cp.PID())
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Kill at t=1 mid-compute, restart from the top at t=3: "a done" at
	// 4.5, "b done" at 4.7, final exit nil.
	want := []string{
		fmt.Sprintf("%x failure %v", 1.0, ErrHostFailed),
		fmt.Sprintf("%x exit %v", 1.0, ErrKilled),
		fmt.Sprintf("%x a done", 4.5),
		fmt.Sprintf("%x b done", 4.7),
		fmt.Sprintf("%x exit %v", 4.7, error(nil)),
	}
	diffLogs(t, "got", *log, "want", want)
	if len(pids) != 2 || pids[1] <= pids[0] {
		t.Errorf("restart did not allocate a fresh PID: %v", pids)
	}
}

// TestChainPoolScrubbed: recycled ChainProcs carry nothing of their
// previous life.
func TestChainPoolScrubbed(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	spec := NewChain().Loop(2).Sleep(0.05).Compute("w", 1e6).End().MustBuild()
	for i := 0; i < 4; i++ {
		if _, err := env.StartChain(fmt.Sprintf("c%d", i), "client", spec, &ChainConfig{
			OnExit: func(error) {},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if env.chainPool.Len() == 0 {
		t.Fatal("no ChainProc was pooled")
	}
	for i, c := range env.chainPool.Items() {
		clean := c.env == nil && c.spec == nil && c.task == nil && c.exec == nil &&
			c.rec == nil && c.onExit == nil && c.OnFailure == nil &&
			!c.done && c.pc == 0 && c.pid == 0 && len(c.counters) == 0
		if !clean {
			t.Errorf("pooled ChainProc %d not scrubbed: %+v", i, c)
		}
	}
}
