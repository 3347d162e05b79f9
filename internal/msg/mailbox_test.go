package msg

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/platform"
)

// TestPendingSize: every Put and every Get holds one record, so its size
// is a per-activity cost; the direction's trace string shares one field
// (link key on the send half, container on the receive half) to keep
// the merged record at the size the send-only record had.
func TestPendingSize(t *testing.T) {
	if got, want := unsafe.Sizeof(pending{}), uintptr(64); got != want {
		t.Fatalf("pending is %d bytes, want %d", got, want)
	}
}

// checkMailboxes asserts the one-queue invariant on every mailbox,
// reached the way the kernel reaches them — through the host records,
// the inline first-channel box and the others alike: everything live
// faces the same way, every slot outside the live part is nil, and the
// backlog counters equal the summed live lengths. It also audits the
// records' own books: each is filed under its host's name, every actor
// on it points back at it from the slot it says it is in.
func checkMailboxes(t *testing.T, env *Environment) {
	t.Helper()
	var live [2]int
	audit := func(host string, channel int, mb *mailbox) {
		for i, r := range mb.q[:cap(mb.q)] {
			switch inLive := i >= mb.head && i < len(mb.q); {
			case !inLive && r != nil:
				t.Errorf("t=%g %s:%d: slot %d outside the live part [%d,%d) holds a record", env.Now(), host, channel, i, mb.head, len(mb.q))
			case inLive && r == nil:
				t.Errorf("t=%g %s:%d: live slot %d is nil", env.Now(), host, channel, i)
			case inLive && r.dir != mb.q[mb.head].dir:
				t.Errorf("t=%g %s:%d: slot %d faces %d, the head faces %d", env.Now(), host, channel, i, r.dir, mb.q[mb.head].dir)
			case inLive:
				live[r.dir]++
			}
		}
	}
	for name, h := range env.hosts {
		if h.host.Name != name {
			t.Errorf("record of %s filed under %s", h.host.Name, name)
		}
		if h.boxUsed {
			audit(name, h.boxCh, &h.box)
		} else if len(h.box.q) != 0 || len(h.more) != 0 {
			t.Errorf("%s: mailboxes in use, the inline one unclaimed", name)
		}
		for channel, mb := range h.more {
			if channel == h.boxCh {
				t.Errorf("%s: channel %d has a second mailbox beside the inline one", name, channel)
			}
			audit(name, channel, mb)
		}
		for i, a := range h.actors {
			if a.home != h || int(a.slot) != i {
				t.Errorf("%s: actor %s (pid %d) in slot %d says slot %d of %s", name, a.name, a.pid, i, a.slot, a.home.host.Name)
			}
		}
	}
	if live != env.queued {
		t.Errorf("t=%g: live queue lengths %v, backlog counters %v", env.Now(), live, env.queued)
	}
}

// TestOneQueueInvariant drives a seeded mix of goroutine and chain
// senders and receivers over a handful of mailboxes — every goroutine
// call with a timeout but the buffered puts, a reaper killing parties of
// both forms mid-block — and audits every mailbox throughout and at the
// end.
func TestOneQueueInvariant(t *testing.T) {
	hosts := []string{"h0", "h1", "h2", "h3"}
	pf := platform.New()
	for _, h := range hosts {
		if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			l := &platform.Link{Name: a + b, Bandwidth: 1e6, Latency: 1e-3}
			if err := pf.AddRoute(a, b, []*platform.Link{l}); err != nil {
				t.Fatal(err)
			}
		}
	}
	env := NewEnvironment(pf, exact())
	rng := rand.New(rand.NewSource(18))
	pick := func() (string, int) { return hosts[rng.Intn(len(hosts))], rng.Intn(2) }

	var procs []*Process
	var chains []*ChainProc
	for i := 0; i < 24; i++ {
		host, _ := pick()
		seed := rng.Int63()
		p, err := env.NewProcess("g"+strconv.Itoa(i), host, func(p *Process) error {
			r := rand.New(rand.NewSource(seed))
			for round := 0; round < 30; round++ {
				timeout := 0.01 + r.Float64()*0.3
				if r.Intn(2) == 0 {
					dst, ch := hosts[r.Intn(len(hosts))], r.Intn(2)
					task := NewTask("t", 0, float64(r.Intn(2e5)))
					if r.Intn(3) == 0 {
						p.PutBuffered(task, dst, ch)
					} else {
						p.PutWithTimeout(task, dst, ch, timeout)
					}
				} else {
					p.GetWithTimeout(r.Intn(2), timeout)
				}
				if err := p.Sleep(r.Float64() * 0.05); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	for i := 0; i < 12; i++ {
		host, _ := pick()
		dst, ch := pick()
		b := NewChain().Loop(0)
		if i%2 == 0 {
			bytes := float64(rng.Intn(2e5))
			b.Do(fresh("c", bytes)).PutReg(dst, ch).Sleep(rng.Float64() * 0.05)
		} else {
			b.Get(ch).Sleep(rng.Float64() * 0.05)
		}
		c, err := env.StartChain("c"+strconv.Itoa(i), host, b.End().MustBuild(), &ChainConfig{Daemon: true})
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, c)
	}
	if _, err := env.NewProcess("reaper", "h0", func(p *Process) error {
		for i := 0; i < 8; i++ {
			if err := p.Sleep(0.2); err != nil {
				return err
			}
			procs[rng.Intn(len(procs))].Kill() // a no-op on one already gone
			if c := chains[rng.Intn(len(chains))]; !c.done {
				c.kill(ErrKilled)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	audits := 0
	auditor, err := env.NewProcess("auditor", "h0", func(p *Process) error {
		for {
			checkMailboxes(t, env)
			audits++
			if err := p.Sleep(0.013); err != nil {
				return err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	auditor.Daemonize()
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkMailboxes(t, env)
	if audits < 100 || env.queuedPeak < 2 {
		t.Errorf("%d audits, backlog peak %d: the workload did not exercise the queues", audits, env.queuedPeak)
	}
}

// TestFIFOAcrossTimeouts queues seven parties on one mailbox, lets the
// head and two from the middle (behind two that stay) time out, and has
// the other side serve the rest: they are matched in posting order,
// whichever way the queue faces.
func TestFIFOAcrossTimeouts(t *testing.T) {
	const n = 7
	timesOut := map[int]bool{0: true, 3: true, 5: true}
	for _, queued := range []dir{send, recv} {
		t.Run(dirState[queued], func(t *testing.T) {
			env := NewEnvironment(lanPlatform(t), exact())
			var served []string // what each matched receive got, in completion order
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				i := i
				timeout := 0.0
				if timesOut[i] {
					timeout = 1
				}
				name := "q" + strconv.Itoa(i)
				env.NewProcess(name, "client", func(p *Process) error {
					if queued == send {
						errs[i] = p.PutWithTimeout(NewTask(name, 0, 1), "server", 0, timeout)
						return nil
					}
					task, err := p.GetWithTimeout(0, timeout)
					if errs[i] = err; err == nil {
						served = append(served, name+"<-"+task.Name)
					}
					return nil
				})
			}
			env.NewProcess("server", "server", func(p *Process) error {
				if err := p.Sleep(2); err != nil {
					return err
				}
				checkMailboxes(t, env)
				for k := 0; k < n-len(timesOut); k++ {
					name := "s" + strconv.Itoa(k)
					if queued == send {
						task, err := p.Get(0)
						if err != nil {
							return err
						}
						served = append(served, name+"<-"+task.Name)
					} else if err := p.Put(NewTask(name, 0, 1), "client", 0); err != nil {
						return err
					}
				}
				return nil
			})
			if err := env.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			for i, err := range errs {
				if timesOut[i] != errors.Is(err, ErrTimeout) || (!timesOut[i] && err != nil) {
					t.Errorf("q%d ended with %v (times out: %v)", i, err, timesOut[i])
				}
			}
			want := "[s0<-q1 s1<-q2 s2<-q4 s3<-q6]"
			if queued == recv {
				want = "[q1<-s0 q2<-s1 q4<-s2 q6<-s3]"
			}
			if got := fmt.Sprint(served); got != want {
				t.Errorf("served %s, want %s", got, want)
			}
			checkMailboxes(t, env)
			if env.queued != [2]int{} {
				t.Errorf("backlog left: %v", env.queued)
			}
		})
	}
}
