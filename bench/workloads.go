package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/faults"
	"repro/internal/instr"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/simdag"
	"repro/internal/surf"
	"repro/internal/sweep"
)

// tier is one size of a workload. width is the concurrency (pairs,
// chains, DAG width), rounds what each unit repeats (rounds, or seeds
// on the campaign's seed axis). A workload's base tier has about the
// same number of activities as its full tier at ~100× less width, so
// growth_ratio isolates working-set size from work done.
type tier struct {
	name   string // "full" or "base": the golden key
	width  int
	rounds int
}

// outcome is what one repetition simulated. Everything in it is a pure
// function of (workload, tier, seed).
type outcome struct {
	activities int
	failed     int     // operations that returned an error / tasks that ended Failed
	makespan   float64 // simulated seconds
	digest     uint64
	// noDigest marks the campaign's traced replay, which has no report
	// to hash: it is checked on the other three fields only.
	noDigest bool
}

// runner is one set-up instance of a workload, ready to run once.
type runner interface {
	// run is the measured phase. tr is nil except on the traced
	// repetition, where run profiles its engine(s), hangs the phase
	// totals under the open span and dumps the layers' counters into
	// tr.reg.
	run(tr *tracer) error
	outcome() outcome
}

// workload is one named benchmark scenario.
type workload struct {
	name string
	why  string
	// full and base are the measured tiers; tinyFull and tinyBase the
	// same shapes at a size the test suite runs in a fraction of a
	// second.
	full, base, tinyFull, tinyBase tier
	// setup goes from nothing to "ready to run" for the given tier with
	// inputs drawn from seed: platform, model, environment or DAG,
	// processes and placement.
	setup func(t tier, seed int64, tr *tracer) (runner, error)
}

func (w *workload) tiers(tiny bool) (full, base tier) {
	if tiny {
		return w.tinyFull, w.tinyBase
	}
	return w.full, w.base
}

// Rounds are shortened against the sizes first proposed for these
// workloads (pairs × 40, × 25, × 15, × 25, 4 campaign seeds) so that the
// 114 driver runs fit their total time cap; widths — what each workload
// stresses — are kept.
var workloads = []*workload{
	{
		name: "msg_pairs",
		why:  "goroutine process pairs on private links: core handoff and msg rendezvous dominate, maxmin solves 1-2 variable components",
		full: tier{"full", 5000, 12}, base: tier{"base", 50, 1200},
		tinyFull: tier{"full", 60, 3}, tinyBase: tier{"base", 6, 30},
		setup: func(t tier, seed int64, tr *tracer) (runner, error) {
			return setupPairs(t, seed, tr, false, false)
		},
	},
	{
		name: "msg_backbone",
		why:  "same process bodies, every route crosses one shared link: one 2000-variable maxmin component re-solved at each completion",
		full: tier{"full", 2000, 2}, base: tier{"base", 20, 200},
		tinyFull: tier{"full", 40, 3}, tinyBase: tier{"base", 4, 30},
		setup: func(t tier, seed int64, tr *tracer) (runner, error) {
			return setupPairs(t, seed, tr, true, false)
		},
	},
	{
		name: "msg_chain",
		why:  "processless chains, 20k-deep surf event heap and chain interpreter, zero goroutine handoffs: bypasses core dispatch",
		full: tier{"full", 20000, 5}, base: tier{"base", 200, 500},
		tinyFull: tier{"full", 80, 3}, tinyBase: tier{"base", 8, 30},
		setup: func(t tier, seed int64, tr *tracer) (runner, error) {
			return setupPairs(t, seed, tr, false, true)
		},
	},
	{
		name: "simdag_chains",
		why:  "pre-placed compute-comm task chains: simdag dependency release and surf completion callbacks, no processes or mailboxes",
		full: tier{"full", 10000, 8}, base: tier{"base", 100, 800},
		tinyFull: tier{"full", 60, 3}, tinyBase: tier{"base", 6, 30},
		setup: setupDagChains,
	},
	{
		name: "sweep_campaign",
		why:  "16 short contended fault-injected engines at fanout 1: scheduling, DAG generation and engine churn outweigh the kernel",
		full: tier{"full", 40, 2}, base: tier{"base", 4, 20},
		tinyFull: tier{"full", 6, 1}, tinyBase: tier{"base", 3, 2},
		setup: setupCampaign,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputRand returns the input stream of one (workload, seed): the
// simulator never sees the seed, only what is drawn here.
func inputRand(kind string, seed int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(kind))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// hashFloat adds the bit pattern of a simulated time to an FNV-1a digest.
func hashFloat(h hash.Hash64, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// channel is the one mailbox channel the pair workloads use.
const channel = 1

// --- msg pair workloads ---------------------------------------------------

// pairPlatform builds n sender/receiver host pairs, one private link
// each, bandwidth and latency staggered by index so completions spread
// over distinct instants. With backbone set every route also crosses
// one shared link sized to be the bottleneck of all n flows.
func pairPlatform(n int, backbone bool) (*platform.Platform, error) {
	pf := platform.New()
	var bb *platform.Link
	if backbone {
		bb = &platform.Link{Name: "backbone", Bandwidth: 1e6 * float64(n), Latency: 1e-4}
	}
	for i := 0; i < n; i++ {
		is := strconv.Itoa(i)
		src, dst := "s"+is, "r"+is
		if err := pf.AddHost(&platform.Host{Name: src, Power: 1e9}); err != nil {
			return nil, err
		}
		if err := pf.AddHost(&platform.Host{Name: dst, Power: 1e9}); err != nil {
			return nil, err
		}
		route := []*platform.Link{{
			Name:      "l" + is,
			Bandwidth: 1e8 * (1 + 0.15*float64(i%7)),
			Latency:   1e-4 * (1 + float64(i%5)),
		}}
		if bb != nil {
			route = append(route, bb)
		}
		if err := pf.AddRoute(src, dst, route); err != nil {
			return nil, err
		}
	}
	return pf, nil
}

// msgRun is a set-up msg environment. Process i records its finish
// time in finish[i] and the operations that returned an error in
// errs[i]; only one simulated process runs at a time, so the slots
// need no lock.
type msgRun struct {
	env        *msg.Environment
	activities int
	finish     []float64
	errs       []int
}

func (m *msgRun) run(tr *tracer) error {
	if tr == nil {
		return m.env.Run()
	}
	p := instr.NewProfiler()
	m.env.Engine().SetProfiler(p)
	err := m.env.Run()
	tr.addPhases(p)
	m.env.MetricsInto(tr.reg)
	return err
}

func (m *msgRun) outcome() outcome {
	o := outcome{activities: m.activities, makespan: m.env.Now()}
	h := fnv.New64a()
	for i, f := range m.finish {
		hashFloat(h, f)
		o.failed += m.errs[i]
	}
	o.digest = h.Sum64()
	return o
}

// setupPairs builds the pair workload in goroutine-process or chain
// form. Each pair does `rounds` of: send bytes to the receiver, then
// compute flops — two activities a round. Payload sizes are drawn per
// pair from the seed.
func setupPairs(t tier, seed int64, tr *tracer, backbone, chains bool) (runner, error) {
	rng := inputRand("pairs", seed)
	id := tr.begin("platform.build")
	pf, err := pairPlatform(t.width, backbone)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("msg.build")
	defer tr.end(id)
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	m := &msgRun{
		env:        env,
		activities: 2 * t.width * t.rounds,
		finish:     make([]float64, 2*t.width),
		errs:       make([]int, 2*t.width),
	}
	rounds := t.rounds
	for i := 0; i < t.width; i++ {
		is := strconv.Itoa(i)
		src, dst := "s"+is, "r"+is
		bytes := 1e5 * (3 + 4*rng.Float64())
		flops := 1e6 * (1 + 3*rng.Float64())
		si, ri := 2*i, 2*i+1
		if chains {
			err = startPairChains(m, src, dst, si, ri, rounds, bytes, flops)
		} else {
			err = startPairProcesses(m, src, dst, si, ri, rounds, bytes, flops)
		}
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

func startPairProcesses(m *msgRun, src, dst string, si, ri, rounds int, bytes, flops float64) error {
	_, err := m.env.NewProcess("recv", dst, func(p *msg.Process) error {
		for r := 0; r < rounds; r++ {
			if _, err := p.Get(channel); err != nil {
				m.errs[ri]++
			}
		}
		m.finish[ri] = p.Now()
		return nil
	})
	if err != nil {
		return err
	}
	_, err = m.env.NewProcess("send", src, func(p *msg.Process) error {
		for r := 0; r < rounds; r++ {
			if err := p.Put(msg.NewTask("t", 0, bytes), dst, channel); err != nil {
				m.errs[si]++
			}
			if err := p.Execute(msg.NewTask("c", flops, 0)); err != nil {
				m.errs[si]++
			}
		}
		m.finish[si] = p.Now()
		return nil
	})
	return err
}

func startPairChains(m *msgRun, src, dst string, si, ri, rounds int, bytes, flops float64) error {
	// A chain stops at its first failing step, so an error here loses
	// the rest of its rounds: count them all as failed.
	harvest := func(slot, ops int) *msg.ChainConfig {
		return &msg.ChainConfig{OnExit: func(err error) {
			m.finish[slot] = m.env.Now()
			if err != nil {
				m.errs[slot] = ops
			}
		}}
	}
	recv, err := msg.NewChain().Loop(rounds).Get(channel).End().Build()
	if err != nil {
		return err
	}
	if _, err := m.env.StartChain("recv", dst, recv, harvest(ri, 0)); err != nil {
		return err
	}
	send, err := msg.NewChain().
		Do(func(c *msg.ChainProc) { c.SetTask(msg.NewTask("t", 0, bytes)) }).
		Loop(rounds).
		PutReg(dst, channel).
		Compute("c", flops).
		End().
		Build()
	if err != nil {
		return err
	}
	_, err = m.env.StartChain("send", src, send, harvest(si, 2*rounds))
	return err
}

// --- simdag chains --------------------------------------------------------

type dagRun struct {
	s *simdag.Simulation
}

func (d *dagRun) run(tr *tracer) error {
	if tr == nil {
		_, err := d.s.Simulate()
		return err
	}
	p := instr.NewProfiler()
	d.s.Engine().SetProfiler(p)
	id := tr.begin("simdag.simulate")
	_, err := d.s.Simulate()
	tr.addPhases(p)
	tr.end(id)
	d.s.MetricsInto(tr.reg)
	return err
}

func (d *dagRun) outcome() outcome {
	tasks := d.s.Tasks()
	o := outcome{activities: len(tasks), makespan: d.s.Makespan()}
	h := fnv.New64a()
	for _, t := range tasks {
		hashFloat(h, t.Finish())
		if t.State() != simdag.Done {
			o.failed++
		}
	}
	o.digest = h.Sum64()
	return o
}

// setupDagChains builds `width` independent chains of `rounds` ×
// (compute on the source host → transfer to the destination host),
// every task placed at build time.
func setupDagChains(t tier, seed int64, tr *tracer) (runner, error) {
	rng := inputRand("dag", seed)
	id := tr.begin("platform.build")
	pf, err := pairPlatform(t.width, false)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("simdag.build")
	defer tr.end(id)
	s := simdag.New(pf, surf.DefaultConfig())
	for i := 0; i < t.width; i++ {
		is := strconv.Itoa(i)
		src, dst := "s"+is, "r"+is
		bytes := 1e5 * (3 + 4*rng.Float64())
		flops := 1e6 * (1 + 3*rng.Float64())
		var prev *simdag.Task
		for r := 0; r < t.rounds; r++ {
			rs := is + "_" + strconv.Itoa(r)
			c := s.NewTask("c"+rs, flops)
			if err := c.Schedule(src); err != nil {
				return nil, err
			}
			x := s.NewCommTask("x"+rs, bytes)
			if err := x.ScheduleComm(src, dst); err != nil {
				return nil, err
			}
			if prev != nil {
				if err := s.AddDependency(prev, c); err != nil {
					return nil, err
				}
			}
			if err := s.AddDependency(c, x); err != nil {
				return nil, err
			}
			prev = x
		}
	}
	return &dagRun{s: s}, nil
}

// --- sweep campaign -------------------------------------------------------

// campaignSpec is the grid: 2 platforms × 1 layered DAG with 10 % ptasks
// × 2 schedulers × {no faults, exponential host failures} × seeds.
func campaignSpec(t tier) *sweep.Spec {
	seeds := make([]int64, t.rounds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return &sweep.Spec{
		Name: "bench",
		Platforms: []sweep.PlatformSpec{
			{Name: "cluster32", Kind: "cluster", Hosts: 32},
			{Name: "waxman24", Kind: "waxman", Hosts: 24, Seed: 7},
		},
		Workloads: []sweep.WorkloadSpec{
			{Name: "layered", Kind: "layered", Layers: 20, Width: t.width,
				PtaskProb: 0.1, PtaskSlots: 2},
		},
		Schedulers: []string{"minmin", "heft"},
		Faults: []sweep.FaultSpec{
			{Name: "none"},
			{Name: "exp-mtbf200", MTBF: 200, MTTR: 2, Horizon: 1000},
		},
		Seeds: seeds,
	}
}

type campaignRun struct {
	spec   *sweep.Spec
	seed   int64
	report *sweep.CampaignReport
	// replayed marks report as the traced replay's, not Execute's.
	replayed bool
}

// setupCampaign draws the campaign seed and pays, once per grid point,
// the set-up calls sweep.Execute makes inside its runs — platform
// build, model and DAG build, fault compile and arm — so that set-up
// cost is visible as setup_s although Execute hides it in the run. It
// records no spans of its own: the traced replay shows the same calls
// one by one, and each should count once.
func setupCampaign(t tier, seed int64, _ *tracer) (runner, error) {
	c := &campaignRun{spec: campaignSpec(t), seed: inputRand("campaign", seed).Int63()}
	runs, err := sweep.Expand(c.spec, c.seed)
	if err != nil {
		return nil, err
	}
	for i := range runs {
		if _, _, _, err := buildRun(&runs[i], nil); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildRun is the set-up half of one grid point, by the same public
// calls sweep's runOne makes.
func buildRun(r *sweep.Run, tr *tracer) (*simdag.Simulation, []string, *faults.Injector, error) {
	id := tr.begin("platform.build")
	pf, hosts, err := r.Platform.Build()
	tr.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	id = tr.begin("simdag.build")
	s := simdag.New(pf, r.Solver.Config())
	err = r.Workload.Build(s, r.RunSeed)
	tr.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	var inj *faults.Injector
	if r.Fault.Active() {
		id = tr.begin("faults.compile_arm")
		defer tr.end(id)
		params, err := r.Fault.Params(hosts)
		if err != nil {
			return nil, nil, nil, err
		}
		sched, err := faults.Compile(r.RunSeed, params)
		if err != nil {
			return nil, nil, nil, err
		}
		if inj, err = faults.Arm(sched, s.Model()); err != nil {
			return nil, nil, nil, err
		}
		s.SetReschedulePolicy(hosts)
	}
	return s, hosts, inj, nil
}

func (c *campaignRun) run(tr *tracer) error {
	if tr != nil {
		return c.replay(tr)
	}
	rep, err := sweep.Execute(c.spec, c.seed, sweep.Options{Fanout: 1})
	c.report = rep
	return err
}

// replay runs the campaign as Execute would, one public call at a time,
// so that each step of each grid point is its own span. Its report
// carries no per-run metrics subtree, so it is not hashed.
func (c *campaignRun) replay(tr *tracer) error {
	id := tr.begin("sweep.expand")
	runs, err := sweep.Expand(c.spec, c.seed)
	tr.end(id)
	if err != nil {
		return err
	}
	stats := make([]sweep.RunStat, len(runs))
	for i := range runs {
		r := &runs[i]
		rid := tr.begin("sweep.run")
		s, hosts, inj, err := buildRun(r, tr)
		if err != nil {
			return err
		}
		p := instr.NewProfiler()
		s.Engine().SetProfiler(p)
		id := tr.begin("simdag.sched")
		switch r.Scheduler {
		case "minmin":
			err = simdag.ScheduleMinMin(s, hosts)
		case "heft":
			err = simdag.ScheduleHEFT(s, hosts)
		default:
			err = fmt.Errorf("unknown scheduler %q", r.Scheduler)
		}
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("simdag.simulate")
		_, err = s.Simulate()
		tr.addPhases(p)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("instr.metrics")
		s.MetricsInto(tr.reg)
		if inj != nil {
			inj.MetricsInto(tr.reg)
		}
		tr.end(id)
		stats[i] = sweep.RunStat{
			Key: r.Key, Platform: r.Platform.Name, Workload: r.Workload.Name,
			Scheduler: r.Scheduler, Solver: r.Solver.Name, Faults: r.Fault.Name,
			Seed: r.Seed, RunSeed: r.RunSeed,
			Makespan: s.Makespan(), Tasks: len(s.Tasks()),
			Done: s.DoneCount(), Failed: s.FailedCount(), Reschedules: s.Reschedules(),
		}
		tr.end(rid)
	}
	id = tr.begin("sweep.report")
	c.report = &sweep.CampaignReport{
		SchemaVersion: sweep.SchemaVersion, Campaign: c.spec.Name, Seed: c.seed,
		Points: len(stats), Runs: stats,
	}
	_, err = sweep.Marshal(c.report)
	tr.end(id)
	c.replayed = true
	return err
}

func (c *campaignRun) outcome() outcome {
	o := outcome{noDigest: c.replayed}
	for i := range c.report.Runs {
		st := &c.report.Runs[i]
		o.activities += st.Tasks
		o.failed += st.Failed
		o.makespan += st.Makespan
	}
	o.makespan /= float64(len(c.report.Runs))
	if c.replayed {
		return o
	}
	data, err := sweep.Marshal(c.report)
	if err != nil {
		// A report of plain numbers and strings always marshals.
		panic(err)
	}
	h := fnv.New64a()
	h.Write(data)
	o.digest = h.Sum64()
	return o
}
