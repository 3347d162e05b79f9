package smpi

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/surf"
)

// Pins of smpi's observable schedule: what every rank gets back from
// each call, and the exact simulated instant it gets it, recorded in
// the order the ranks resume. Any change to matching order, to the
// eager/rendezvous choice or to wake order moves them.

// sharedCluster puts n ranks on (n+1)/2 hosts of unequal power behind
// unequal links, so pairs of ranks share a host (and talk without
// crossing a link) while the rest cross two.
func sharedCluster(t *testing.T, n int) *World {
	t.Helper()
	p := platform.New()
	if err := p.AddRouter("sw"); err != nil {
		t.Fatal(err)
	}
	k := (n + 1) / 2
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("h%d", i)
		if err := p.AddHost(&platform.Host{Name: name, Power: 1e9 * float64(1+i%3)}); err != nil {
			t.Fatal(err)
		}
		l := &platform.Link{Name: "l" + name, Bandwidth: 1.25e8 / float64(1+i%2), Latency: 5e-5 * float64(1+i)}
		if err := p.Connect(name, "sw", l); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d", i%k)
	}
	w, err := New(p, surf.DefaultConfig(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// pinLog records, per returning call, the rank, what it got and the
// instant as Float64bits, in resume order.
type pinLog struct{ lines []string }

func (l *pinLog) add(r *Rank, what string, v any) {
	l.lines = append(l.lines, fmt.Sprintf("%d %s %v @%016x", r.Rank(), what, v, math.Float64bits(r.Wtime())))
}

func (l *pinLog) digest() string {
	h := sha256.New()
	for _, s := range l.lines {
		fmt.Fprintln(h, s)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// collectivesScript runs every collective once on each rank, staggered
// so that some ranks reach each call long after others.
func collectivesScript(log *pinLog, size float64) func(*Rank) error {
	return func(r *Rank) error {
		n, me := r.Size(), r.Rank()
		if err := r.Compute(float64((me*7)%5) * 1e7); err != nil {
			return err
		}
		if err := r.Barrier(); err != nil {
			return err
		}
		log.add(r, "barrier", nil)
		var data any
		if me == n-1 {
			data = "b"
		}
		v, err := r.Bcast(n-1, data, size)
		if err != nil {
			return err
		}
		log.add(r, "bcast", v)
		if err := r.Compute(float64((me*3)%4) * 2e7); err != nil {
			return err
		}
		sum, err := r.Allreduce(float64(me+1), OpSum, size)
		if err != nil {
			return err
		}
		log.add(r, "allreduce", sum)
		g, err := r.Gather(n/2, me*10, size)
		if err != nil {
			return err
		}
		log.add(r, "gather", g)
		var items []any
		if me == 0 {
			for i := 0; i < n; i++ {
				items = append(items, 100+i)
			}
		}
		s, err := r.Scatter(0, items, size)
		if err != nil {
			return err
		}
		log.add(r, "scatter", s)
		mine := make([]any, n)
		for i := range mine {
			mine[i] = me*100 + i
		}
		out, err := r.Alltoall(mine, size)
		if err != nil {
			return err
		}
		log.add(r, "alltoall", out)
		return nil
	}
}

// backlogScript: rank 0 first waits with AnySource before anyone sent,
// then computes while every other rank queues two messages, takes the
// last rank's first message by name, and drains the rest with
// AnySource — lowest source first.
func backlogScript(log *pinLog, size float64) func(*Rank) error {
	return func(r *Rank) error {
		n, me := r.Size(), r.Rank()
		if me != 0 {
			if err := r.Compute(float64(me) * 1e6); err != nil {
				return err
			}
			for i := 0; i < 2; i++ {
				if err := r.Send(0, 5, me*100+i, size); err != nil {
					return err
				}
				log.add(r, "sent", i)
			}
			return nil
		}
		recv := func(src int) error {
			v, from, err := r.Recv(src, 5)
			if err != nil {
				return err
			}
			log.add(r, "recv", fmt.Sprint(v, " from ", from))
			return nil
		}
		left := 2 * (n - 1)
		if left == 0 {
			return nil
		}
		if err := recv(AnySource); err != nil {
			return err
		}
		left--
		if err := r.Compute(1e9); err != nil {
			return err
		}
		if n > 2 {
			if err := recv(n - 1); err != nil {
				return err
			}
			left--
		}
		for ; left > 0; left-- {
			if err := recv(AnySource); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestPinDigest pins the collectives at 1–7 ranks and the AnySource
// backlog at 2–7, across both sides of the eager threshold (8 and
// 65536 B eager, 65537 B and 1 MB rendezvous), with ranks sharing hosts.
func TestPinDigest(t *testing.T) {
	const want = "5e91e086cb6826dbea93e69e45c1adcb4dcba79982f8975877c94b65a8999a19"
	var log pinLog
	for _, size := range []float64{8, EagerThreshold, EagerThreshold + 1, 1e6} {
		for n := 1; n <= 7; n++ {
			if err := sharedCluster(t, n).Run(collectivesScript(&log, size)); err != nil {
				t.Fatalf("collectives n=%d size=%g: %v", n, size, err)
			}
			if err := sharedCluster(t, n).Run(backlogScript(&log, size)); err != nil {
				t.Fatalf("backlog n=%d size=%g: %v", n, size, err)
			}
		}
	}
	if got := log.digest(); got != want {
		t.Errorf("digest over %d returns = %s, want %s", len(log.lines), got, want)
	}
}

// TestPinRendezvousMatMul pins a matmul whose every broadcast hop is
// rendezvous-sized (M doubles = 72 000 B), with ranks sharing hosts.
func TestPinRendezvousMatMul(t *testing.T) {
	const want = 0x3f8defb90cd70ece
	w := sharedCluster(t, 4)
	makespan, err := RunMatMul(w, MatMulConfig{M: 9000, N: 4, K: 4}, 0.0005, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(makespan); got != want {
		t.Errorf("makespan %g (%#016x), want %#016x", makespan, got, uint64(want))
	}
}

// TestPinE7Makespans pins the paper's SMPI experiment (E7,
// BenchmarkSMPIMatmul) to the bit on both clusters.
func TestPinE7Makespans(t *testing.T) {
	cases := []struct {
		name   string
		powers []float64
		want   uint64
	}{
		{"homogeneous-4x1G", []float64{1e9, 1e9, 1e9, 1e9}, 0x3fa73ab87eb53733},
		{"heterogeneous-one-slow", []float64{1e9, 1e9, 1e9, 2.5e8}, 0x3fc10d703db7c2c5},
	}
	for _, c := range cases {
		pf := platform.New()
		if err := pf.AddRouter("sw"); err != nil {
			t.Fatal(err)
		}
		hosts := make([]string, len(c.powers))
		for j, p := range c.powers {
			hosts[j] = fmt.Sprintf("n%d", j)
			if err := pf.AddHost(&platform.Host{Name: hosts[j], Power: p}); err != nil {
				t.Fatal(err)
			}
			l := &platform.Link{Name: "e" + hosts[j], Bandwidth: 1.25e8, Latency: 5e-5}
			if err := pf.Connect(hosts[j], "sw", l); err != nil {
				t.Fatal(err)
			}
		}
		if err := pf.ComputeRoutes(); err != nil {
			t.Fatal(err)
		}
		w, err := New(pf, surf.DefaultConfig(), hosts)
		if err != nil {
			t.Fatal(err)
		}
		makespan, err := RunMatMul(w, MatMulConfig{M: 64, N: 64, K: 64}, 0.0005, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(makespan); got != c.want {
			t.Errorf("%s: makespan %g (%#016x), want %#016x", c.name, makespan, got, c.want)
		}
	}
}
