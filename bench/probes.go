package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/maxmin"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/simdag"
	"repro/internal/surf"
)

// A probe drives one layer alone, through its public API, in the shape
// of the workload whose cost it explains: a layer's share of a traced
// run ("40 % of the run is solving") is cross-checked by what the layer
// costs in isolation ("one such solve takes N ns"). prepare does the
// untimed set-up and returns the operations to time together.
type probe struct {
	name    string
	prepare func(tiny bool) (run func() error, ops int, err error)
}

var probes = []probe{
	{"platform.probe_route_lookup_ns", probeRouteLookup},
	{"maxmin.probe_shared_ns_per_solve", probeSolveShared},
	{"maxmin.probe_islands_ns_per_solve", probeSolveIslands},
	{"surf.probe_ns_per_action", probeSurfActions},
	{"core.probe_handoff_ns", probeHandoff},
	{"core.probe_timer_ns", probeTimers},
	{"msg.probe_rendezvous_ns", probeRendezvous},
	{"msg.probe_chain_step_ns", probeChainStep},
	{"simdag.probe_release_ns_per_task", probeRelease},
}

// once prepares and times a probe one time; like a workload repetition
// it collects garbage between the two, so the timed part starts from a
// settled heap.
func (p *probe) once(tiny bool) (nsPerOp float64, err error) {
	run, ops, err := p.prepare(tiny)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	err = run()
	return float64(time.Since(t0).Nanoseconds()) / float64(ops), err
}

// measure times a probe by the rule the workloads use: one warm-up,
// then as many repetitions as fit the budget, reported like any host
// time.
func (p *probe) measure(opt options, budget float64) (stat, error) {
	t0 := time.Now()
	if _, err := p.once(opt.tiny); err != nil {
		return stat{}, err
	}
	var ns []float64
	for i := opt.repsFor(budget, time.Since(t0).Seconds(), 15); i > 0; i-- {
		v, err := p.once(opt.tiny)
		if err != nil {
			return stat{}, err
		}
		ns = append(ns, v)
	}
	return summarize(ns, "ns"), nil
}

// runProbes measures every probe, sharing the budget equally.
func runProbes(opt options, budget float64) (map[string]stat, error) {
	m := make(map[string]stat, len(probes))
	for i := range probes {
		p := &probes[i]
		st, err := p.measure(opt, budget/float64(len(probes)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		m[p.name] = st
	}
	return m, nil
}

// pick returns tiny when the test suite runs the probes, else full.
func pick(isTiny bool, full, tiny int) int {
	if isTiny {
		return tiny
	}
	return full
}

// probeRouteLookup: the memoized Platform.Route lookup msg pays once
// per transfer, over the 2000 routes of the backbone workload.
func probeRouteLookup(tiny bool) (func() error, int, error) {
	n := pick(tiny, 2000, 40)
	pf, err := pairPlatform(n, true)
	if err != nil {
		return nil, 0, err
	}
	src, dst := make([]string, n), make([]string, n)
	for i := range src {
		src[i], dst[i] = "s"+strconv.Itoa(i), "r"+strconv.Itoa(i)
	}
	const passes = 50
	return func() error {
		for k := 0; k < passes; k++ {
			for i := range src {
				if _, err := pf.Route(src[i], dst[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}, passes * n, nil
}

// probeSolveShared: msg_backbone's solver system — one shared
// constraint crossed by 2000 variables; each step is one flow ending
// and the next starting, then a solve of the whole component.
func probeSolveShared(tiny bool) (func() error, int, error) {
	n := pick(tiny, 2000, 40)
	sys := maxmin.NewSystem()
	shared := sys.NewConstraint(1e6 * float64(n))
	vars := make([]*maxmin.Variable, n)
	for i := range vars {
		vars[i] = sys.NewVariable(1+float64(i%5), 0)
		sys.Expand(shared, vars[i], 1)
	}
	sys.Solve()
	solves := pick(tiny, 300, 20)
	return func() error {
		for k := 0; k < solves; k++ {
			i := (k * 7) % n
			sys.RemoveVariable(vars[i])
			vars[i] = sys.NewVariable(1+float64(k%5), 0)
			sys.Expand(shared, vars[i], 1)
			sys.Solve()
		}
		return nil
	}, solves, nil
}

// probeSolveIslands: msg_pairs' solver system — 5000 private
// constraints with one variable each; a step replaces one variable and
// the solve touches that component alone.
func probeSolveIslands(tiny bool) (func() error, int, error) {
	n := pick(tiny, 5000, 50)
	sys := maxmin.NewSystem()
	cnsts := make([]*maxmin.Constraint, n)
	vars := make([]*maxmin.Variable, n)
	for i := range vars {
		cnsts[i] = sys.NewConstraint(1e8)
		vars[i] = sys.NewVariable(1, 0)
		sys.Expand(cnsts[i], vars[i], 1)
	}
	sys.Solve()
	solves := pick(tiny, 200000, 500)
	return func() error {
		for k := 0; k < solves; k++ {
			i := (k * 7) % n
			sys.RemoveVariable(vars[i])
			vars[i] = sys.NewVariable(1, 0)
			sys.Expand(cnsts[i], vars[i], 1)
			sys.Solve()
		}
		return nil
	}, solves, nil
}

// failures turns a count of failed operations into the probe's error.
func failures(n int, err error) error {
	if err == nil && n > 0 {
		return fmt.Errorf("%d operations failed", n)
	}
	return err
}

// hostsOnly builds a platform of n unconnected hosts h0..h(n-1).
func hostsOnly(n int) (*platform.Platform, error) {
	pf := platform.New()
	for i := 0; i < n; i++ {
		if err := pf.AddHost(&platform.Host{Name: "h" + strconv.Itoa(i), Power: 1e9}); err != nil {
			return nil, err
		}
	}
	return pf, nil
}

// renewer restarts its host's computation each time one completes,
// through surf's closure-free completion interface.
type renewer struct {
	m      *surf.Model
	host   *surf.HostHandle
	flops  float64
	left   int
	failed *int
}

func (r *renewer) ActionDone(a *surf.Action, err error) {
	a.Release()
	if err != nil {
		*r.failed++
		return
	}
	r.start()
}

func (r *renewer) start() {
	if r.left == 0 {
		return
	}
	r.left--
	a, err := r.m.ExecuteHandle(r.host, r.flops, 1)
	if err != nil {
		*r.failed++
		return
	}
	a.SetCompletion(r)
}

// probeSurfActions: a bare engine and model with 20k self-renewing
// computations, one per host — msg_chain's and simdag_chains' event
// heap depth with nothing above surf.
func probeSurfActions(tiny bool) (func() error, int, error) {
	n, rounds := pick(tiny, 20000, 50), 10
	pf, err := hostsOnly(n)
	if err != nil {
		return nil, 0, err
	}
	eng := core.New()
	m := surf.New(eng, pf, surf.DefaultConfig())
	failed := 0
	rs := make([]renewer, n)
	for i := range rs {
		rs[i] = renewer{
			m: m, host: m.HostHandle("h" + strconv.Itoa(i)),
			flops: 1e6 * (1 + float64(i%97)/97), left: rounds, failed: &failed,
		}
	}
	return func() error {
		for i := range rs {
			rs[i].start()
		}
		return failures(failed, eng.RunUntilIdle())
	}, n * rounds, nil
}

// probeHandoff: 10k processes on an engine with no model, each sleeping
// in turn — one timer, one wake and one goroutine handoff per sleep,
// msg_pairs' per-activity kernel cost with nothing simulated.
func probeHandoff(tiny bool) (func() error, int, error) {
	n, rounds := pick(tiny, 10000, 50), 10
	eng := core.New()
	failed := 0
	for i := 0; i < n; i++ {
		d := 1 + float64(i%97)/97
		eng.Spawn("p", nil, func(p *core.Process) {
			for r := 0; r < rounds; r++ {
				if err := p.Sleep(d); err != nil {
					failed++
				}
			}
		})
	}
	return func() error { return failures(failed, eng.Run()) }, n * rounds, nil
}

// probeTimers: 10k timers created with At, each re-arming itself from
// its own callback — the timer heap alone.
func probeTimers(tiny bool) (func() error, int, error) {
	n, rounds := pick(tiny, 10000, 50), 20
	eng := core.New()
	return func() error {
		for i := 0; i < n; i++ {
			period := 1 + float64(i%97)/97
			left := rounds
			var tm *core.Timer
			tm = eng.At(period, func() {
				if left--; left > 0 {
					tm.Rearm(eng.Now() + period)
				}
			})
		}
		return eng.RunUntilIdle()
	}, n * rounds, nil
}

// probeRendezvous: sender and receiver on the same host, so a transfer
// crosses no link and completes in the instant it starts — mailbox
// match and wake only.
func probeRendezvous(tiny bool) (func() error, int, error) {
	n, rounds := pick(tiny, 1000, 20), 50
	pf, err := hostsOnly(n)
	if err != nil {
		return nil, 0, err
	}
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	failed := 0
	for i := 0; i < n; i++ {
		host := "h" + strconv.Itoa(i)
		if _, err := env.NewProcess("recv", host, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if _, err := p.Get(1); err != nil {
					failed++
				}
			}
			return nil
		}); err != nil {
			return nil, 0, err
		}
		if _, err := env.NewProcess("send", host, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if err := p.Put(msg.NewTask("t", 0, 1), host, 1); err != nil {
					failed++
				}
			}
			return nil
		}); err != nil {
			return nil, 0, err
		}
	}
	return func() error { return failures(failed, env.Run()) }, n * rounds, nil
}

// probeChainStep: the chain interpreter alone — a loop of non-blocking
// steps runs inline inside StartChain.
func probeChainStep(tiny bool) (func() error, int, error) {
	steps := pick(tiny, 2000000, 10000)
	pf, err := hostsOnly(1)
	if err != nil {
		return nil, 0, err
	}
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	count := 0
	spec, err := msg.NewChain().Loop(steps).Do(func(*msg.ChainProc) { count++ }).End().Build()
	if err != nil {
		return nil, 0, err
	}
	return func() error {
		_, err := env.StartChain("c", "h0", spec, nil)
		return failures(steps-count, err)
	}, steps, nil
}

// probeRelease: chains of zero-work sequence tasks — simdag's
// dependency release sweep with no action behind any task.
func probeRelease(tiny bool) (func() error, int, error) {
	n, depth := pick(tiny, 10000, 50), 10
	pf, err := hostsOnly(1)
	if err != nil {
		return nil, 0, err
	}
	s := simdag.New(pf, surf.DefaultConfig())
	for i := 0; i < n; i++ {
		var prev *simdag.Task
		for k := 0; k < depth; k++ {
			t := s.NewSeqTask("q")
			if prev != nil {
				if err := s.AddDependency(prev, t); err != nil {
					return nil, 0, err
				}
			}
			prev = t
		}
	}
	return func() error {
		_, err := s.Simulate()
		return failures(n*depth-s.DoneCount(), err)
	}, n * depth, nil
}
