package smpi

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/pool/pooltest"
	"repro/internal/surf"
	"repro/internal/trace"
)

func exact() surf.Config { return surf.Config{BandwidthFactor: 1, LatencyFactor: 1} }

// cluster builds n hosts on a shared switch (star of fast links).
func cluster(t *testing.T, n int, power float64) (*platform.Platform, []string) {
	t.Helper()
	p := platform.New()
	p.AddRouter("switch")
	hosts := make([]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		hosts[i] = name
		if err := p.AddHost(&platform.Host{Name: name, Power: power}); err != nil {
			t.Fatal(err)
		}
		l := &platform.Link{Name: "eth" + name, Bandwidth: 1.25e8, Latency: 5e-5}
		if err := p.Connect(name, "switch", l); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return p, hosts
}

func run(t *testing.T, n int, main func(*Rank) error) *World {
	t.Helper()
	pf, hosts := cluster(t, n, 1e9)
	w, err := New(pf, exact(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(main); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return w
}

// TestRankOutlivesHostFailure: a rank whose host fails sees the failure
// as its operation's error and runs on; it is not killed.
func TestRankOutlivesHostFailure(t *testing.T) {
	pf, hosts := cluster(t, 2, 1e9)
	pf.Host("n1").StateTrace = trace.MustNew("st", []trace.Event{{Time: 0.5, Value: 0}, {Time: 1, Value: 1}}, 0)
	w, err := New(pf, exact(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			_, _, err := r.Recv(1, 0)
			return err
		}
		if err := r.Compute(1e9); !errors.Is(err, surf.ErrHostFailed) {
			return fmt.Errorf("compute ended with %v, want a host failure", err)
		}
		return r.Send(0, 0, "alive", 8)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRankAndSize(t *testing.T) {
	seen := make([]bool, 4)
	run(t, 4, func(r *Rank) error {
		if r.Size() != 4 {
			return fmt.Errorf("size = %d", r.Size())
		}
		seen[r.Rank()] = true
		if r.proc.Host() == nil {
			return errors.New("nil host")
		}
		return nil
	})
	for i, s := range seen {
		if !s {
			t.Errorf("rank %d never ran", i)
		}
	}
}

func TestSendRecv(t *testing.T) {
	run(t, 2, func(r *Rank) error {
		if r.Rank() == 0 {
			return r.Send(1, 7, "hello", 1e6)
		}
		v, src, err := r.Recv(0, 7)
		if err != nil {
			return err
		}
		if v.(string) != "hello" || src != 0 {
			return fmt.Errorf("got %v from %d", v, src)
		}
		return nil
	})
}

func TestRecvAnySource(t *testing.T) {
	got := map[int]bool{}
	run(t, 4, func(r *Rank) error {
		if r.Rank() != 0 {
			return r.Send(0, 1, r.Rank(), 1e3)
		}
		for i := 0; i < 3; i++ {
			v, src, err := r.Recv(AnySource, 1)
			if err != nil {
				return err
			}
			if v.(int) != src {
				return fmt.Errorf("payload %v from %d", v, src)
			}
			got[src] = true
		}
		return nil
	})
	if len(got) != 3 {
		t.Errorf("received from %d sources, want 3", len(got))
	}
}

// TestTransferWakeOrder pins, per protocol, which end of a finished
// transfer resumes first and that the payload and source rank reach the
// receiver: an eager send resumes an attached receiver before the
// sender, every matched (rendezvous) transfer the sender before the
// receiver. Ranks log as they return from Send/Recv; same-instant
// resumptions run in wake order.
func TestTransferWakeOrder(t *testing.T) {
	cases := []struct {
		name     string
		sender   int     // the other rank (of 2) receives
		bytes    float64 // <= EagerThreshold ships eagerly when unmatched
		recvFrom int     // Recv's source argument
		delay    float64 // flops the receiver computes before posting
		want     string
	}{
		// Rank 0 runs first, so it posts first.
		{"eager, receiver attaches in flight", 0, 1e3, 0, 0, "recv send"},
		{"eager, arrived before the receive", 0, 1e3, 0, 1e9, "send recv"},
		{"rendezvous, sender first", 0, 1e6, 0, 0, "send recv"},
		{"rendezvous, receiver first", 1, 1e6, 1, 0, "send recv"},
		{"small message, receiver first", 1, 1e3, 1, 0, "send recv"},
		{"AnySource, receiver first", 1, 1e3, AnySource, 0, "send recv"},
		{"AnySource, eager in flight", 0, 1e3, AnySource, 0, "recv send"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var order []string
			var sentAt, recvAt float64
			run(t, 2, func(r *Rank) error {
				if r.Rank() == c.sender {
					err := r.Send(1-c.sender, 3, "payload", c.bytes)
					order, sentAt = append(order, "send"), r.Wtime()
					return err
				}
				if c.delay > 0 {
					if err := r.Compute(c.delay); err != nil {
						return err
					}
				}
				v, src, err := r.Recv(c.recvFrom, 3)
				order, recvAt = append(order, "recv"), r.Wtime()
				if err != nil {
					return err
				}
				if v != "payload" || src != c.sender {
					return fmt.Errorf("received %v from rank %d, want payload from %d", v, src, c.sender)
				}
				return nil
			})
			if got := fmt.Sprint(order); got != "["+c.want+"]" {
				t.Errorf("resume order %s, want [%s]", got, c.want)
			}
			if c.delay == 0 && sentAt != recvAt {
				t.Errorf("sender resumed at %g, receiver at %g: want one instant", sentAt, recvAt)
			}
		})
	}
}

func TestSendTakesNetworkTime(t *testing.T) {
	var recvAt float64
	w := run(t, 2, func(r *Rank) error {
		if r.Rank() == 0 {
			return r.Send(1, 0, nil, 1.25e8) // 1 s at 1.25e8 B/s
		}
		_, _, err := r.Recv(0, 0)
		recvAt = r.Wtime()
		return err
	})
	_ = w
	if recvAt < 1.0 || recvAt > 1.1 {
		t.Errorf("1.25e8 B arrived at %g, want ~1 s", recvAt)
	}
}

func TestTagsSeparateStreams(t *testing.T) {
	run(t, 2, func(r *Rank) error {
		if r.Rank() == 0 {
			if err := r.Send(1, 5, "five", 1e3); err != nil {
				return err
			}
			return r.Send(1, 6, "six", 1e3)
		}
		// Receive in reverse tag order.
		v6, _, err := r.Recv(0, 6)
		if err != nil {
			return err
		}
		v5, _, err := r.Recv(0, 5)
		if err != nil {
			return err
		}
		if v5.(string) != "five" || v6.(string) != "six" {
			return fmt.Errorf("tag mixup: %v %v", v5, v6)
		}
		return nil
	})
}

func TestComputeScalesWithPower(t *testing.T) {
	pf, hosts := cluster(t, 2, 2e9)
	w, _ := New(pf, exact(), hosts)
	var at float64
	if err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			if err := r.Compute(4e9); err != nil { // 2 s at 2 Gflop/s
				return err
			}
			at = r.Wtime()
		}
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if math.Abs(at-2) > 1e-6 {
		t.Errorf("compute ended at %g, want 2", at)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var after [5]float64
	run(t, 5, func(r *Rank) error {
		// Rank i sleeps i*0.1 s before the barrier.
		if err := r.Compute(float64(r.Rank()) * 1e8); err != nil {
			return err
		}
		if err := r.Barrier(); err != nil {
			return err
		}
		after[r.Rank()] = r.Wtime()
		return nil
	})
	// Everyone must leave the barrier at (or after) the slowest entry.
	for i, ts := range after {
		if ts < 0.4 {
			t.Errorf("rank %d left barrier at %g, before slowest entry (0.4)", i, ts)
		}
	}
}

func TestBcastAllSizes(t *testing.T) {
	for n := 1; n <= 9; n++ {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			vals := make([]int, n)
			run(t, n, func(r *Rank) error {
				data := any(nil)
				if r.Rank() == 0 {
					data = 42
				}
				v, err := r.Bcast(0, data, 1e4)
				if err != nil {
					return err
				}
				vals[r.Rank()] = v.(int)
				return nil
			})
			for i, v := range vals {
				if v != 42 {
					t.Errorf("rank %d got %d", i, v)
				}
			}
		})
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	vals := make([]string, 6)
	run(t, 6, func(r *Rank) error {
		data := any(nil)
		if r.Rank() == 4 {
			data = "from4"
		}
		v, err := r.Bcast(4, data, 1e4)
		if err != nil {
			return err
		}
		vals[r.Rank()] = v.(string)
		return nil
	})
	for i, v := range vals {
		if v != "from4" {
			t.Errorf("rank %d got %q", i, v)
		}
	}
}

func TestReduceSum(t *testing.T) {
	for n := 1; n <= 8; n++ {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var got float64
			run(t, n, func(r *Rank) error {
				v, err := r.Reduce(0, float64(r.Rank()+1), OpSum, 1e3)
				if err != nil {
					return err
				}
				if r.Rank() == 0 {
					got = v
				}
				return nil
			})
			want := float64(n*(n+1)) / 2
			if got != want {
				t.Errorf("sum = %g, want %g", got, want)
			}
		})
	}
}

func TestReduceOps(t *testing.T) {
	cases := []struct {
		op   Op
		want float64
	}{
		{OpMax, 5}, {OpMin, 1}, {OpProd, 120}, {OpSum, 15},
	}
	for ci, c := range cases {
		var got float64
		run(t, 5, func(r *Rank) error {
			v, err := r.Reduce(0, float64(r.Rank()+1), c.op, 1e3)
			if err != nil {
				return err
			}
			if r.Rank() == 0 {
				got = v
			}
			return nil
		})
		if got != c.want {
			t.Errorf("case %d: got %g, want %g", ci, got, c.want)
		}
	}
}

func TestAllreduce(t *testing.T) {
	sums := make([]float64, 7)
	run(t, 7, func(r *Rank) error {
		v, err := r.Allreduce(float64(r.Rank()), OpSum, 1e3)
		if err != nil {
			return err
		}
		sums[r.Rank()] = v
		return nil
	})
	for i, s := range sums {
		if s != 21 {
			t.Errorf("rank %d allreduce = %g, want 21", i, s)
		}
	}
}

func TestGatherScatter(t *testing.T) {
	var gathered []any
	scattered := make([]string, 4)
	run(t, 4, func(r *Rank) error {
		g, err := r.Gather(0, fmt.Sprintf("item%d", r.Rank()), 1e3)
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			gathered = g
		}
		var items []any
		if r.Rank() == 0 {
			items = []any{"s0", "s1", "s2", "s3"}
		}
		v, err := r.Scatter(0, items, 1e3)
		if err != nil {
			return err
		}
		scattered[r.Rank()] = v.(string)
		return nil
	})
	for i := range gathered {
		if gathered[i].(string) != fmt.Sprintf("item%d", i) {
			t.Errorf("gathered[%d] = %v", i, gathered[i])
		}
	}
	for i, v := range scattered {
		if v != fmt.Sprintf("s%d", i) {
			t.Errorf("scattered[%d] = %q", i, v)
		}
	}
}

func TestAlltoallAllSizes(t *testing.T) {
	for n := 2; n <= 9; n++ {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			results := make([][]any, n)
			// Each rank's return from Alltoall in resume order, as rank and
			// Float64bits of Wtime, with the free lists on and off; pinned
			// at n=9, the largest exchange.
			h := fnv.New64a()
			h.Write(pooltest.Replay(t, 1, func() (log []byte) {
				run(t, n, func(r *Rank) error {
					items := make([]any, n)
					for i := range items {
						items[i] = r.Rank()*100 + i // "from r to i"
					}
					out, err := r.Alltoall(items, 1e3)
					if err != nil {
						return err
					}
					results[r.Rank()] = out
					log = fmt.Appendf(log, "%d %016x\n", r.Rank(), math.Float64bits(r.Wtime()))
					return nil
				})
				return log
			}))
			if got, want := h.Sum64(), uint64(0x382af25a9ee32805); n == 9 && got != want {
				t.Errorf("n=9: return digest %#016x, want %#016x", got, want)
			}
			for me := 0; me < n; me++ {
				for src := 0; src < n; src++ {
					want := src*100 + me
					if results[me][src].(int) != want {
						t.Errorf("n=%d: rank %d from %d = %v, want %d",
							n, me, src, results[me][src], want)
					}
				}
			}
		})
	}
}

func TestBenchAlwaysCachesAndReplays(t *testing.T) {
	executions := 0
	var durations []float64
	run(t, 2, func(r *Rank) error {
		for i := 0; i < 3; i++ {
			dt, err := r.BenchAlways("kernel", func() { executions++ })
			if err != nil {
				return err
			}
			durations = append(durations, dt)
		}
		return nil
	})
	if executions != 6 {
		t.Errorf("benched function ran %d times, want 6 (once per call)", executions)
	}
	if len(durations) != 6 {
		t.Fatalf("%d durations recorded", len(durations))
	}
	for i, dt := range durations {
		if math.Abs(dt-durations[0]) > 1e-9*durations[0] {
			t.Errorf("call %d charged %g, want the first measurement's %g", i, dt, durations[0])
		}
	}
}

func TestSetBenchReplaysDeterministically(t *testing.T) {
	pf, hosts := cluster(t, 1, 1e9)
	w, _ := New(pf, exact(), hosts)
	w.SetBench("dgemm", 0.25)
	ran := false
	var dt float64
	if err := w.Run(func(r *Rank) error {
		var err error
		dt, err = r.BenchAlways("dgemm", func() { ran = true })
		return err
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Error("preloaded bench did not run the function")
	}
	if math.Abs(dt-0.25) > 1e-9 {
		t.Errorf("replayed duration %g, want 0.25", dt)
	}
}

func TestBenchScalesWithHostPower(t *testing.T) {
	// Same cached measurement on a half-speed host takes twice as long.
	p := platform.New()
	p.AddHost(&platform.Host{Name: "fast", Power: 1e9})
	p.AddHost(&platform.Host{Name: "slow", Power: 5e8})
	l := &platform.Link{Name: "l", Bandwidth: 1e9, Latency: 1e-5}
	p.AddRoute("fast", "slow", []*platform.Link{l})
	w, err := New(p, exact(), []string{"fast", "slow"})
	if err != nil {
		t.Fatal(err)
	}
	w.SetBench("k", 1.0) // 1 s measured on the reference machine
	var dts [2]float64
	if err := w.Run(func(r *Rank) error {
		dt, err := r.BenchAlways("k", func() {})
		dts[r.Rank()] = dt
		return err
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if math.Abs(dts[0]-1) > 1e-6 {
		t.Errorf("fast host: %g, want 1", dts[0])
	}
	if math.Abs(dts[1]-2) > 1e-6 {
		t.Errorf("slow host: %g, want 2 (half power)", dts[1])
	}
}

func TestValidation(t *testing.T) {
	pf, hosts := cluster(t, 2, 1e9)
	if _, err := New(pf, exact(), nil); err == nil {
		t.Error("empty hosts accepted")
	}
	if _, err := New(pf, exact(), []string{"ghost"}); err == nil {
		t.Error("unknown host accepted")
	}
	w, _ := New(pf, exact(), hosts)
	err := w.Run(func(r *Rank) error {
		if r.Rank() != 0 {
			return nil
		}
		if err := r.Send(99, 0, nil, 1); !errors.Is(err, ErrRank) {
			return fmt.Errorf("Send(99) = %v", err)
		}
		if _, _, err := r.Recv(99, 0); !errors.Is(err, ErrRank) {
			return fmt.Errorf("Recv(99) = %v", err)
		}
		if _, err := r.Bcast(99, nil, 1); !errors.Is(err, ErrRank) {
			return fmt.Errorf("Bcast(99) = %v", err)
		}
		if _, err := r.Reduce(0, 1, nil, 1); !errors.Is(err, ErrMismatch) {
			return fmt.Errorf("nil op = %v", err)
		}
		if _, err := r.Alltoall([]any{1}, 1); !errors.Is(err, ErrMismatch) {
			return fmt.Errorf("short alltoall = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRankErrorPropagates(t *testing.T) {
	pf, hosts := cluster(t, 2, 1e9)
	w, _ := New(pf, exact(), hosts)
	boom := errors.New("boom")
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("Run = %v, want boom", err)
	}
}

// TestFailedEagerSendLeavesNoRecord: an eager Send whose transfer cannot
// start (no route between the two hosts) returns the error and is over.
// A later matching Recv must not find its record: it used to, ran
// startTransfer on it and woke the sender — by then asleep in an
// unrelated simcall — with the route error at t=1.
func TestFailedEagerSendLeavesNoRecord(t *testing.T) {
	pf := platform.New()
	hosts := []string{"a", "b"}
	for _, h := range hosts {
		if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	w, err := New(pf, exact(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	var sendErr, sleepErr error
	var sleptUntil float64
	if err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			sendErr = r.Send(1, 0, "x", 8)
			sleepErr = r.proc.Sleep(10)
			sleptUntil = r.Wtime()
			return nil
		}
		if err := r.proc.Sleep(1); err != nil {
			return err
		}
		r.proc.Daemonize() // nothing is in flight to it: this Recv never returns
		_, _, err := r.Recv(0, 0)
		return err
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sendErr == nil {
		t.Fatal("Send over a missing route succeeded")
	}
	if sleepErr != nil || sleptUntil != 10 {
		t.Fatalf("sender's Sleep(10) returned %v at t=%g, want nil at t=10", sleepErr, sleptUntil)
	}
}

// TestEagerSendLostInFlightLeavesNoRecord: an eager Send whose transfer
// dies in flight (its link fails at t=1) with no receiver attached is
// over, and its record with it: nothing is queued once the Send returned,
// and the Recv posted at t=3 must match the second Send, not attach to
// the dead transfer — it used to, and the run ended deadlocked with rank
// 1 waiting for a completion long past.
func TestEagerSendLostInFlightLeavesNoRecord(t *testing.T) {
	pf := platform.New()
	hosts := []string{"a", "b"}
	for _, h := range hosts {
		if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.AddRoute("a", "b", []*platform.Link{{Name: "l", Bandwidth: 100, Latency: 0.1}}); err != nil {
		t.Fatal(err)
	}
	w, err := New(pf, exact(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	w.env.Engine().At(1, func() { w.env.Model().FailLink("l") })
	w.env.Engine().At(2, func() { w.env.Model().RestoreLink("l") })
	var lostErr error
	var left int
	var got any
	if err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			lostErr = r.Send(1, 0, "lost", 1000) // 10 s on the wire
			left, _ = w.env.Peek("b", w.channel(0, 1, 0))
			if err := r.proc.Sleep(5); err != nil {
				return err
			}
			return r.Send(1, 0, "second", 8)
		}
		if err := r.proc.Sleep(3); err != nil {
			return err
		}
		var err error
		got, _, err = r.Recv(0, 0)
		return err
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(lostErr, surf.ErrLinkFailed) {
		t.Errorf("first Send = %v, want ErrLinkFailed", lostErr)
	}
	if got != "second" {
		t.Errorf("Recv = %v, want \"second\"", got)
	}
	if left != 0 {
		t.Errorf("%d records left queued once the lost Send returned", left)
	}
}

// TestEagerSendOverDownLinkFailsAtOnce: an eager Send whose route is down
// when it is posted is dead on arrival. It returns ErrLinkFailed at t=0
// and leaves nothing queued, so a later Recv gets the next message. It
// used to queue the dead record after its completion had already run:
// the sender blocked forever, the Recv attached to it, and the run ended
// deadlocked.
func TestEagerSendOverDownLinkFailsAtOnce(t *testing.T) {
	pf := platform.New()
	hosts := []string{"a", "b"}
	for _, h := range hosts {
		if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.AddRoute("a", "b", []*platform.Link{{Name: "l", Bandwidth: 100, Latency: 0.1}}); err != nil {
		t.Fatal(err)
	}
	w, err := New(pf, exact(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.env.Model().FailLink("l"); err != nil {
		t.Fatal(err)
	}
	w.env.Engine().At(1, func() { w.env.Model().RestoreLink("l") })
	var deadErr error
	var deadAt float64
	var got any
	if err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			deadErr = r.Send(1, 0, "dead", 8)
			deadAt = r.Wtime()
			if err := r.proc.Sleep(2); err != nil {
				return err
			}
			return r.Send(1, 0, "next", 8)
		}
		if err := r.proc.Sleep(3); err != nil {
			return err
		}
		var err error
		got, _, err = r.Recv(0, 0)
		return err
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(deadErr, surf.ErrLinkFailed) || deadAt != 0 {
		t.Errorf("Send over the down link = %v at t=%g, want ErrLinkFailed at t=0", deadErr, deadAt)
	}
	if got != "next" {
		t.Errorf("Recv = %v, want \"next\"", got)
	}
}
