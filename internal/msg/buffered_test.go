package msg

import (
	"errors"
	"fmt"
	"testing"
)

// The buffered put (MPI's eager protocol) on lanPlatform: a 1e8 B task
// takes 1.001 s from client to server (1 ms latency, then 1e8 B/s).
const (
	bigBytes = 1e8
	bigTrip  = 1.001
)

// checkEmpty fails the test unless every mailbox is consistent and
// empty, and every pooled record is scrubbed.
func checkEmpty(t *testing.T, env *Environment) {
	t.Helper()
	checkMailboxes(t, env)
	if env.queued != [2]int{} {
		t.Errorf("records left queued: %v", env.queued)
	}
	checkScrubbed(t, env)
}

// TestPutBufferedWakeOrder: a Get that attaches to a buffered put in
// flight resumes before its sender, in the same instant; a buffered put
// that finds its receiver waiting is a plain rendezvous, sender first.
func TestPutBufferedWakeOrder(t *testing.T) {
	for _, c := range []struct {
		name     string
		getDelay float64
		want     string
	}{
		{"receiver attaches in flight", 0.5, "[get@1.001 put@1.001]"},
		{"receiver waiting first", 0, "[put@1.001 get@1.001]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := NewEnvironment(lanPlatform(t), exact())
			var log []string
			note := func(p *Process, what string) { log = append(log, fmt.Sprintf("%s@%g", what, p.Now())) }
			env.NewProcess("receiver", "server", func(p *Process) error {
				if c.getDelay > 0 {
					if err := p.Sleep(c.getDelay); err != nil {
						return err
					}
				}
				task, err := p.Get(0)
				if err != nil || task.Name != "m" {
					return fmt.Errorf("Get = %v, %v", task, err)
				}
				note(p, "get")
				return nil
			})
			env.NewProcess("sender", "client", func(p *Process) error {
				if err := p.PutBuffered(NewTask("m", 0, bigBytes), "server", 0); err != nil {
					return err
				}
				note(p, "put")
				return nil
			})
			if err := env.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := fmt.Sprint(log); got != c.want {
				t.Errorf("resumed %s, want %s", got, c.want)
			}
			checkEmpty(t, env)
		})
	}
}

// TestPutBufferedDeliveredBeforeGet: the sender returns when the bytes
// arrive; a goroutine Get and a chain Get coming later each take their
// task in the instant they ask, without blocking.
func TestPutBufferedDeliveredBeforeGet(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var sentAt []float64
	env.NewProcess("sender", "client", func(p *Process) error {
		for _, ch := range []int{0, 1} {
			if err := p.PutBuffered(NewTask(fmt.Sprint("m", ch), 0, bigBytes), "server", ch); err != nil {
				return err
			}
			sentAt = append(sentAt, p.Now())
		}
		return nil
	})
	var goGot string
	var goAt float64
	env.NewProcess("getter", "server", func(p *Process) error {
		if err := p.Sleep(3); err != nil {
			return err
		}
		task, err := p.Get(0)
		if err != nil {
			return err
		}
		goGot, goAt = task.Name, p.Now()
		return nil
	})
	var chainGot string
	var chainAt float64
	spec := NewChain().Sleep(4).Get(1).Do(func(c *ChainProc) { chainGot, chainAt = c.Task().Name, c.Now() }).MustBuild()
	if _, err := env.StartChain("chain", "server", spec, nil); err != nil {
		t.Fatal(err)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fmt.Sprint(sentAt) != fmt.Sprint([]float64{bigTrip, 2 * bigTrip}) {
		t.Errorf("puts returned at %v, want on arrival, %g and %g", sentAt, bigTrip, 2*bigTrip)
	}
	if goGot != "m0" || goAt != 3 {
		t.Errorf("goroutine Get took %q at t=%g, want m0 at t=3", goGot, goAt)
	}
	if chainGot != "m1" || chainAt != 4 {
		t.Errorf("chain Get took %q at t=%g, want m1 at t=4", chainGot, chainAt)
	}
	checkEmpty(t, env)
}

// TestPutBufferedSenderKilledInFlight: the sender of a buffered put no
// receiver attached to is killed mid-transfer. Its put leaves the queue
// and its transfer ends with it: a plain Put that recycles the record
// and queues on the same mailbox before the dead transfer would have
// arrived is what the later Get receives, and nothing completes onto it.
func TestPutBufferedSenderKilledInFlight(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	victim, _ := env.NewProcess("victim", "client", func(p *Process) error {
		return p.PutBuffered(NewTask("lost", 0, bigBytes), "server", 0)
	})
	env.Engine().At(0.5, func() { victim.Kill() })
	env.NewProcess("next", "client", func(p *Process) error {
		if err := p.Sleep(0.6); err != nil {
			return err
		}
		return p.Put(NewTask("next", 0, 1e3), "server", 0)
	})
	var got string
	env.NewProcess("receiver", "server", func(p *Process) error {
		if err := p.Sleep(3); err != nil {
			return err
		}
		task, err := p.Get(0)
		if err != nil {
			return err
		}
		got = task.Name
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != "next" {
		t.Errorf("Get took %q, want next", got)
	}
	checkEmpty(t, env)
}

// TestPutBufferedSenderKilledWithReceiverAttached: the transfer keeps
// flowing to the receiver that attached, which still gets the task.
func TestPutBufferedSenderKilledWithReceiverAttached(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	victim, _ := env.NewProcess("victim", "client", func(p *Process) error {
		return p.PutBuffered(NewTask("m", 0, bigBytes), "server", 0)
	})
	env.Engine().At(0.5, func() { victim.Kill() })
	var got *Task
	var gotAt float64
	env.NewProcess("receiver", "server", func(p *Process) error {
		if err := p.Sleep(0.2); err != nil {
			return err
		}
		var err error
		got, err = p.Get(0)
		gotAt = p.Now()
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got == nil || got.Name != "m" || gotAt != bigTrip {
		t.Errorf("receiver got %v at t=%g, want m at t=%g", got, gotAt, bigTrip)
	}
	checkEmpty(t, env)
}

// TestPutBufferedAttachedReceiverKilled: the sender still returns on
// arrival, and the task went with the killed receiver: a later Get
// finds nothing.
func TestPutBufferedAttachedReceiverKilled(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var sendErr error
	var sentAt float64
	env.NewProcess("sender", "client", func(p *Process) error {
		sendErr = p.PutBuffered(NewTask("m", 0, bigBytes), "server", 0)
		sentAt = p.Now()
		return nil
	})
	victim, _ := env.NewProcess("victim", "server", func(p *Process) error {
		if err := p.Sleep(0.2); err != nil {
			return err
		}
		_, err := p.Get(0)
		return err
	})
	env.Engine().At(0.5, func() { victim.Kill() })
	var lateErr error
	env.NewProcess("late", "server", func(p *Process) error {
		if err := p.Sleep(2); err != nil {
			return err
		}
		_, lateErr = p.GetWithTimeout(0, 1)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sendErr != nil || sentAt != bigTrip {
		t.Errorf("PutBuffered = %v at t=%g, want nil at t=%g", sendErr, sentAt, bigTrip)
	}
	if !errors.Is(lateErr, ErrTimeout) {
		t.Errorf("late Get = %v, want ErrTimeout", lateErr)
	}
	checkEmpty(t, env)
}

// TestPutBufferedHostFailsMidFlight: a host failure kills the party on
// it. The sender's host failing takes its unattached put along; the
// receiver's host failing leaves the sender to return on arrival.
func TestPutBufferedHostFailsMidFlight(t *testing.T) {
	for _, failing := range []string{"client", "server"} {
		t.Run(failing, func(t *testing.T) {
			env := NewEnvironment(lanPlatform(t), exact())
			sendErr := errors.New("sentinel: PutBuffered never returned")
			env.NewProcess("sender", "client", func(p *Process) error {
				sendErr = p.PutBuffered(NewTask("m", 0, bigBytes), "server", 0)
				return nil
			})
			var getErr error
			env.NewProcess("receiver", "server", func(p *Process) error {
				if failing == "server" {
					if err := p.Sleep(0.2); err != nil {
						return err
					}
					_, getErr = p.Get(0)
					return nil
				}
				if err := p.Sleep(2); err != nil {
					return err
				}
				_, getErr = p.GetWithTimeout(0, 1)
				return nil
			})
			env.Engine().At(0.5, func() {
				if err := env.Model().FailHost(failing); err != nil {
					t.Error(err)
				}
			})
			if err := env.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			switch failing {
			case "client":
				if sendErr == nil || sendErr.Error() != "sentinel: PutBuffered never returned" {
					t.Errorf("killed sender's PutBuffered returned %v", sendErr)
				}
				if !errors.Is(getErr, ErrTimeout) {
					t.Errorf("Get after the sender's host failed = %v, want ErrTimeout", getErr)
				}
			case "server":
				if sendErr != nil {
					t.Errorf("PutBuffered = %v, want nil: the bytes still arrived", sendErr)
				}
			}
			checkEmpty(t, env)
		})
	}
}
