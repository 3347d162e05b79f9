package simgrid

// MSG and SimDag are two front-ends over one SURF: the same workload
// written as MSG processes and as a SimDag DAG must finish every
// activity at the same instant, bit for bit. A put/get pair is one comm
// task that depends on both sides' previous steps, since an MSG
// transfer starts once both the put and the get are posted.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/simdag"
	"repro/internal/surf"
)

// TestFrontEndsAgreeQuickstart runs the paper's client/server exchange:
// a 3.2 MB put, 30 MFlop on the server, 10.5 MFlop on the client, then
// a 10 kB ack.
func TestFrontEndsAgreeQuickstart(t *testing.T) {
	pf := platform.New()
	for _, h := range []string{"client", "server"} {
		if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	lan := &platform.Link{Name: "lan", Bandwidth: 1.25e7, Latency: 1e-4}
	if err := pf.AddRoute("client", "server", []*platform.Link{lan}); err != nil {
		t.Fatal(err)
	}

	viaMSG := map[string]float64{}
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	spawn(t, env, "server", "server", func(p *msg.Process) error {
		task, err := p.Get(22)
		if err != nil {
			return err
		}
		viaMSG["remote"] = p.Now()
		if err := p.Execute(task); err != nil {
			return err
		}
		viaMSG["remote exec"] = p.Now()
		return p.Put(msg.NewTask("ack", 0, 1e4), "client", 23)
	})
	spawn(t, env, "client", "client", func(p *msg.Process) error {
		if err := p.Put(msg.NewTask("remote", 30e6, 3.2e6), "server", 22); err != nil {
			return err
		}
		if err := p.Execute(msg.NewTask("local", 10.5e6, 0)); err != nil {
			return err
		}
		viaMSG["local"] = p.Now()
		if _, err := p.Get(23); err != nil {
			return err
		}
		viaMSG["ack"] = p.Now()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	d := newDAG(t, pf)
	remote := d.comm("remote", 3.2e6, "client", "server")
	remoteExec := d.compute("remote exec", 30e6, "server", remote)
	local := d.compute("local", 10.5e6, "client", remote)
	d.comm("ack", 1e4, "server", "client", remoteExec, local)
	sameBits(t, viaMSG, d.run())
}

// TestFrontEndsAgreeContendedFanIn runs four transfers of different
// sizes into one host, all crossing one shared link, each followed by a
// compute on the receiving host.
func TestFrontEndsAgreeContendedFanIn(t *testing.T) {
	const n = 4
	pf := platform.New()
	if err := pf.AddHost(&platform.Host{Name: "sink", Power: 1e9}); err != nil {
		t.Fatal(err)
	}
	shared := &platform.Link{Name: "shared", Bandwidth: 2e7, Latency: 2e-4}
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("src%d", i)
		if err := pf.AddHost(&platform.Host{Name: src, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		access := &platform.Link{Name: "access" + src, Bandwidth: 1e7 * float64(i+1), Latency: 1e-4 * float64(i+1)}
		if err := pf.AddRoute(src, "sink", []*platform.Link{access, shared}); err != nil {
			t.Fatal(err)
		}
	}
	bytes := func(i int) float64 { return 1e6 * float64(i+2) }
	flops := func(i int) float64 { return 1e7 * float64(n-i) }

	viaMSG := map[string]float64{}
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	for i := 0; i < n; i++ {
		i, src := i, fmt.Sprintf("src%d", i)
		spawn(t, env, "send"+src, src, func(p *msg.Process) error {
			return p.Put(msg.NewTask("xfer", 0, bytes(i)), "sink", i)
		})
		spawn(t, env, "recv"+src, "sink", func(p *msg.Process) error {
			if _, err := p.Get(i); err != nil {
				return err
			}
			viaMSG["xfer "+src] = p.Now()
			if err := p.Execute(msg.NewTask("exec", flops(i), 0)); err != nil {
				return err
			}
			viaMSG["exec "+src] = p.Now()
			return nil
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	d := newDAG(t, pf)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("src%d", i)
		xfer := d.comm("xfer "+src, bytes(i), src, "sink")
		d.compute("exec "+src, flops(i), "sink", xfer)
	}
	sameBits(t, viaMSG, d.run())
}

func spawn(t *testing.T, env *msg.Environment, name, host string, fn func(*msg.Process) error) {
	t.Helper()
	if _, err := env.NewProcess(name, host, fn); err != nil {
		t.Fatal(err)
	}
}

// dag builds a pre-placed SimDag DAG, failing the test on any error.
type dag struct {
	t *testing.T
	s *simdag.Simulation
}

func newDAG(t *testing.T, pf *platform.Platform) *dag {
	return &dag{t, simdag.New(pf, surf.DefaultConfig())}
}

func (d *dag) compute(name string, flops float64, host string, after ...*simdag.Task) *simdag.Task {
	task := d.s.NewTask(name, flops)
	d.check(task.Schedule(host))
	return d.depend(task, after)
}

func (d *dag) comm(name string, bytes float64, src, dst string, after ...*simdag.Task) *simdag.Task {
	task := d.s.NewCommTask(name, bytes)
	d.check(task.ScheduleComm(src, dst))
	return d.depend(task, after)
}

func (d *dag) depend(task *simdag.Task, after []*simdag.Task) *simdag.Task {
	for _, a := range after {
		d.check(d.s.AddDependency(a, task))
	}
	return task
}

func (d *dag) check(err error) {
	d.t.Helper()
	if err != nil {
		d.t.Fatal(err)
	}
}

// run simulates the DAG and returns every task's finish time by name.
func (d *dag) run() map[string]float64 {
	_, err := d.s.Simulate()
	d.check(err)
	out := map[string]float64{}
	for _, task := range d.s.Tasks() {
		if task.State() != simdag.Done {
			d.t.Fatalf("task %q ended %v", task.Name(), task.State())
		}
		out[task.Name()] = task.Finish()
	}
	return out
}

// sameBits fails on any activity whose two finish times differ in a bit.
func sameBits(t *testing.T, viaMSG, viaDAG map[string]float64) {
	t.Helper()
	if len(viaMSG) != len(viaDAG) {
		t.Fatalf("MSG timed %d activities, SimDag %d", len(viaMSG), len(viaDAG))
	}
	names := make([]string, 0, len(viaMSG))
	for name := range viaMSG {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m, d := viaMSG[name], viaDAG[name]
		if math.Float64bits(m) != math.Float64bits(d) {
			t.Errorf("%s: MSG finishes at %v, SimDag at %v", name, m, d)
		}
	}
}
