// TestPoolScoreboards pins what the eight free lists count: the
// hit/miss/free triad every layer reports through MetricsInto is inside
// the sweep campaign digest and read by bench/, so a change to the one
// list implementation (internal/pool) that moved a count would move
// them. Two small runs cover all eight owners — an MSG run mixing
// goroutine pairs, processless chains, a Paje trace and host failures
// with auto-restart, and a SimDag run whose host failure diverts tasks
// back to the scheduler — each replayed pooled and unpooled.
package simgrid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/pool/pooltest"
	"repro/internal/simdag"
	"repro/internal/surf"
)

// scoreboard renders the pool triads of a finished run. The per-engine
// lists print hit/miss/free; the process-wide carrier-goroutine list is
// stocked by whatever ran before in this test binary, so only what this
// run drew from it — Gets, hit or miss — is a function of the run.
func scoreboard(t *testing.T, metricsInto func(*instr.Registry), before map[string]float64) []byte {
	t.Helper()
	after := poolMetrics(t, metricsInto)
	var out bytes.Buffer
	for _, name := range []string{
		"maxmin.var_pool", "maxmin.elem_pool", "surf.action_pool", "surf.res_slice_pool",
		"msg.send_pool", "msg.recv_pool", "msg.chain_pool",
	} {
		if _, ok := after[name+".hit"]; ok {
			fmt.Fprintf(&out, "%s %v/%v/%v\n", name, after[name+".hit"], after[name+".miss"], after[name+".steady_free"])
		}
	}
	const workers = "core.worker_pool"
	gets := after[workers+".hit"] + after[workers+".miss"] - before[workers+".hit"] - before[workers+".miss"]
	fmt.Fprintf(&out, "%s gets %v\n", workers, gets)
	return out.Bytes()
}

// poolMetrics snapshots a registry filled by metricsInto.
func poolMetrics(t *testing.T, metricsInto func(*instr.Registry)) map[string]float64 {
	t.Helper()
	r := instr.NewRegistry()
	metricsInto(r)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// globalPools reads the process-wide list before a run, through an
// engine that has done nothing.
func globalPools(t *testing.T) map[string]float64 {
	return poolMetrics(t, core.New().MetricsInto)
}

func runMixedMSG(t *testing.T) []byte {
	t.Helper()
	const pairs, rounds, channel = 4, 4, 7
	before := globalPools(t)
	env := msg.NewEnvironment(determinismPlatform(t, pairs), surf.DefaultConfig())
	env.EnableTrace(instr.NewTrace(io.Discard))
	for i := 0; i < pairs; i++ {
		i := i
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		volatile := i%2 == 1 // the sender's host fails mid-run and the sender starts over
		if i < 2 {
			recv, err := env.NewProcess("recv", dst, func(p *msg.Process) error {
				for r := 0; volatile || r < rounds; r++ {
					if _, err := p.Get(channel); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if volatile {
				recv.Daemonize()
			}
			send, err := env.NewProcess("send", src, func(p *msg.Process) error {
				for r := 0; r < rounds; r++ {
					if err := p.Put(msg.NewTask("t", 0, 5e4), dst, channel); err != nil {
						return err
					}
					if err := p.Execute(msg.NewTask("c", 5e5, 0)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			send.SetAutoRestart(volatile)
			continue
		}
		gets := rounds
		if volatile {
			gets = 1 << 20
		}
		recv := msg.NewChain().Loop(gets).Get(channel).End().MustBuild()
		if _, err := env.StartChain("recv", dst, recv, &msg.ChainConfig{Daemon: volatile}); err != nil {
			t.Fatal(err)
		}
		send := msg.NewChain().Loop(rounds).
			Do(func(c *msg.ChainProc) { c.SetTask(msg.NewTask("t", 0, 5e4)) }).PutReg(dst, channel).
			Compute("c", 5e5).End().MustBuild()
		if _, err := env.StartChain("send", src, send, &msg.ChainConfig{AutoRestart: volatile}); err != nil {
			t.Fatal(err)
		}
	}
	eng, model := env.Engine(), env.Model()
	for _, h := range []string{"s1", "s3"} {
		h := h
		eng.After(2e-3, func() {
			if err := model.FailHost(h); err != nil {
				t.Error(err)
			}
		})
		eng.After(4e-3, func() {
			if err := model.RestoreHost(h); err != nil {
				t.Error(err)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := env.Trace().Close(); err != nil {
		t.Fatal(err)
	}
	return scoreboard(t, env.MetricsInto, before)
}

func runRescheduledDAG(t *testing.T) []byte {
	t.Helper()
	before := globalPools(t)
	pf, hosts, err := platform.NewCluster(platform.ClusterConfig{
		Prefix: "n", Hosts: 3, Power: 1e9, Bandwidth: 1e8, Latency: 1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := simdag.New(pf, surf.DefaultConfig())
	s.SetReschedulePolicy(hosts)
	// Six three-stage chains (compute, transfer, compute), two per host.
	for i := 0; i < 6; i++ {
		a, x, b := s.NewTask("a", 2e9), s.NewCommTask("x", 1e7), s.NewTask("b", 1e9)
		for _, dep := range [][2]*simdag.Task{{a, x}, {x, b}} {
			if err := s.AddDependency(dep[0], dep[1]); err != nil {
				t.Fatal(err)
			}
		}
		src, dst := hosts[i%3], hosts[(i+1)%3]
		if err := a.Schedule(src); err != nil {
			t.Fatal(err)
		}
		if err := x.ScheduleComm(src, dst); err != nil {
			t.Fatal(err)
		}
		if err := b.Schedule(dst); err != nil {
			t.Fatal(err)
		}
	}
	s.Engine().After(1, func() {
		if err := s.Model().FailHost(hosts[0]); err != nil {
			t.Error(err)
		}
	})
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if s.Reschedules() == 0 || s.FailedCount() != 0 {
		t.Fatalf("reschedules=%d failed=%d: the run no longer diverts its victims", s.Reschedules(), s.FailedCount())
	}
	return scoreboard(t, s.MetricsInto, before)
}

// The wanted values were captured at the commit before pool.List, with
// one exception: unpooled, the carrier-goroutine list used not to count
// a Get at all (0 where this says 5); it now counts a miss like the
// other lists.
func TestPoolScoreboards(t *testing.T) {
	for _, tc := range []struct {
		name          string
		run           func(*testing.T) []byte
		pooled, fresh string
	}{
		{
			name: "msg-mixed", run: runMixedMSG,
			pooled: "maxmin.var_pool 34/4/4\nmaxmin.elem_pool 66/12/12\n" +
				"surf.action_pool 34/4/4\nsurf.res_slice_pool 34/4/4\n" +
				"msg.send_pool 16/4/4\nmsg.recv_pool 18/4/3\nmsg.chain_pool 0/4/3\n" +
				"core.worker_pool gets 5\n",
			fresh: "maxmin.var_pool 0/38/0\nmaxmin.elem_pool 0/78/0\n" +
				"surf.action_pool 0/38/0\nsurf.res_slice_pool 0/38/0\n" +
				"msg.send_pool 0/20/0\nmsg.recv_pool 0/22/0\nmsg.chain_pool 0/4/0\n" +
				"core.worker_pool gets 5\n",
		},
		{
			name: "simdag-reschedule", run: runRescheduledDAG,
			pooled: "maxmin.var_pool 14/6/6\nmaxmin.elem_pool 13/9/9\n" +
				"surf.action_pool 14/6/6\nsurf.res_slice_pool 14/6/6\n" +
				"core.worker_pool gets 0\n",
			fresh: "maxmin.var_pool 0/20/0\nmaxmin.elem_pool 0/22/0\n" +
				"surf.action_pool 0/20/0\nsurf.res_slice_pool 0/20/0\n" +
				"core.worker_pool gets 0\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pooled, fresh := pooltest.ReplayPerMode(t, 2, func() []byte { return tc.run(t) })
			if string(pooled) != tc.pooled {
				t.Errorf("pooled scoreboard moved:\n%s\nwant:\n%s", pooled, tc.pooled)
			}
			if string(fresh) != tc.fresh {
				t.Errorf("unpooled scoreboard moved:\n%s\nwant:\n%s", fresh, tc.fresh)
			}
		})
	}
}
