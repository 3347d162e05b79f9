// TestDeterminism pins the scheduler contract the simcall refactor must
// preserve: a seeded MSG workload produces a bit-identical event order
// on every run. The workload couples every pair through a shared
// backbone link (so completions interact through the MaxMin share),
// mixes transfers, computations, sleeps and same-instant completions,
// and logs every wake. It is replayed five times with pooling on and
// five with it off (pooltest.Replay), so nondeterminism introduced by a
// scheduler or recycling change is caught by plain `go test`.
package simgrid

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/instr"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/pool/pooltest"
	"repro/internal/simdag"
	"repro/internal/surf"
	"repro/internal/sweep"
)

// determinismPlatform wires nPairs sender/receiver pairs through
// per-pair access links plus one shared backbone, so every transfer
// shares bandwidth with every other.
func determinismPlatform(t *testing.T, nPairs int) *platform.Platform {
	t.Helper()
	pf := platform.New()
	backbone := &platform.Link{Name: "backbone", Bandwidth: 5e8, Latency: 5e-4}
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		if err := pf.AddHost(&platform.Host{Name: src, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		if err := pf.AddHost(&platform.Host{Name: dst, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		up := &platform.Link{Name: fmt.Sprintf("up%d", i), Bandwidth: 1e8, Latency: 1e-4}
		down := &platform.Link{Name: fmt.Sprintf("down%d", i), Bandwidth: 1e8, Latency: 1e-4}
		if err := pf.AddRoute(src, dst, []*platform.Link{up, backbone, down}); err != nil {
			t.Fatal(err)
		}
	}
	return pf
}

// runSeededWorkload executes the workload for one seed and returns the
// wake-ordered event log.
func runSeededWorkload(t *testing.T, pf *platform.Platform, nPairs, rounds int, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	var log []string
	record := func(p *msg.Process, what string, round int) {
		log = append(log, fmt.Sprintf("%.9e %s %s r%d", env.Now(), p.Name(), what, round))
	}
	const channel = 7
	for i := 0; i < nPairs; i++ {
		i := i
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		bytes := 1e4 * (1 + rng.Float64()*9)
		flops := 1e5 * (1 + rng.Float64()*9)
		sleep := rng.Float64() * 1e-3
		lockstep := i%3 == 0 // a third of the pairs use identical sizes
		if lockstep {
			bytes, flops, sleep = 5e4, 5e5, 0
		}
		if _, err := env.NewProcess("recv"+dst, dst, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				task, err := p.Get(channel)
				if err != nil {
					return err
				}
				record(p, "got "+task.Name, r)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := env.NewProcess("send"+src, src, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if sleep > 0 {
					if err := p.Sleep(sleep); err != nil {
						return err
					}
				}
				if err := p.Put(msg.NewTask(fmt.Sprintf("t%d", i), 0, bytes), dst, channel); err != nil {
					return err
				}
				record(p, "sent", r)
				if err := p.Execute(msg.NewTask("c", flops, 0)); err != nil {
					return err
				}
				record(p, "computed", r)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return log
}

func TestDeterminism(t *testing.T) {
	const nPairs, rounds, seed = 40, 6, 12345
	ref := pooltest.Replay(t, 5, func() []byte {
		log := runSeededWorkload(t, determinismPlatform(t, nPairs), nPairs, rounds, seed)
		return []byte(strings.Join(log, "\n"))
	})
	if n := strings.Count(string(ref), "\n") + 1; n != nPairs*rounds*3 {
		t.Fatalf("event log has %d entries, want %d", n, nPairs*rounds*3)
	}
}

// runBackboneScenario is the msg_backbone benchmark's shape at a size
// plain `go test` affords: nPairs goroutine pairs, each route one
// private link (seven bandwidth classes, five latency classes, hence
// five RTT weights) plus one backbone sized to be the bottleneck of
// all flows, every sender starting at t=0 so that each latency class
// enters the bandwidth phase in one instant and every completion
// re-solves one nPairs-variable MaxMin component. It returns an FNV-1a
// digest of every process's finish time, bit for bit, and the solver's
// work counters.
func runBackboneScenario(t *testing.T, nPairs, rounds int, seed int64) (uint64, solveStats) {
	t.Helper()
	pf := platform.New()
	backbone := &platform.Link{Name: "backbone", Bandwidth: 1e6 * float64(nPairs), Latency: 1e-4}
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		if err := pf.AddHost(&platform.Host{Name: src, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		if err := pf.AddHost(&platform.Host{Name: dst, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		private := &platform.Link{
			Name:      fmt.Sprintf("l%d", i),
			Bandwidth: 1e8 * (1 + 0.15*float64(i%7)),
			Latency:   1e-4 * (1 + float64(i%5)),
		}
		if err := pf.AddRoute(src, dst, []*platform.Link{private, backbone}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	finish := make([]float64, 2*nPairs)
	const channel = 1
	for i := 0; i < nPairs; i++ {
		i := i
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		bytes := 1e5 * (3 + 4*rng.Float64())
		flops := 1e6 * (1 + 3*rng.Float64())
		if _, err := env.NewProcess("recv", dst, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if _, err := p.Get(channel); err != nil {
					return err
				}
			}
			finish[2*i+1] = p.Now()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := env.NewProcess("send", src, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if err := p.Put(msg.NewTask("t", 0, bytes), dst, channel); err != nil {
					return err
				}
				if err := p.Execute(msg.NewTask("c", flops, 0)); err != nil {
					return err
				}
			}
			finish[2*i] = p.Now()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, f := range finish {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	return h.Sum64(), solverStats(t, env.Model().MetricsInto)
}

// solveStats is the solver's work counters, as its maxmin.* metrics
// report them.
type solveStats struct {
	Solves, ScopeVars, Components, MaxScopeVars, MaxComponents float64
}

// solverStats reads the solver counters of the metrics into reports.
func solverStats(t *testing.T, into func(*instr.Registry)) solveStats {
	m := poolMetrics(t, into)
	return solveStats{m["maxmin.solves"], m["maxmin.scope_vars"], m["maxmin.components"],
		m["maxmin.max_scope_vars"], m["maxmin.max_components"]}
}

// TestBackboneDigest pins the bits of the contended-link case: the
// digests below were generated at ce66eea (PR 13), before the solver
// round was fused and surf's rate-change re-key went bulk, and a
// last-bit drift in any rate moves them. bench/golden.json pins the
// same thing at 2000 flows, but takes the two-minute benchmark to check.
// The solver counters are held too: how many solves, components and
// scope variables the run costs is part of what a kernel change keeps.
func TestBackboneDigest(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		want  uint64
		stats solveStats
	}{
		{1, 0x4b9820952759fe4c, solveStats{Solves: 1005, ScopeVars: 122091, Components: 2405, MaxScopeVars: 200, MaxComponents: 401}},
		{2, 0x003232cc3bdec3c4, solveStats{Solves: 1005, ScopeVars: 121187, Components: 2405, MaxScopeVars: 200, MaxComponents: 401}},
	} {
		c := c
		pooltest.Replay(t, 1, func() []byte {
			got, stats := runBackboneScenario(t, 200, 2, c.seed)
			if got != c.want {
				t.Errorf("seed %d: finish-time digest %#016x, want %#016x", c.seed, got, c.want)
			}
			if stats != c.stats {
				t.Errorf("seed %d: solver stats %#v, want %#v", c.seed, stats, c.stats)
			}
			return []byte(fmt.Sprintf("%016x %+v", got, stats))
		})
	}
}

// TestFaultyGridSolveStats pins the solver counters of one run of the
// faulty campaign's shape (layered DAG, min-min, exponential host
// failures with rescheduling) on the two-site grid, whose WAN links are
// fatpipes: transfers between sites cross two of them.
func TestFaultyGridSolveStats(t *testing.T) {
	spec := sweep.Faulty()
	grid := sweep.PlatformSpec{Name: "grid2x4", Kind: "multisite", Hosts: 4, Sites: 2}
	want := solveStats{Solves: 220, ScopeVars: 94, Components: 269, MaxScopeVars: 6, MaxComponents: 18}
	pooltest.Replay(t, 1, func() []byte {
		pf, hosts, err := grid.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := simdag.New(pf, surf.DefaultConfig())
		if err := spec.Workloads[0].Build(s, 1); err != nil {
			t.Fatal(err)
		}
		params, err := spec.Faults[1].Params(hosts)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := faults.Compile(1, params)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := faults.Arm(sched, s.Model())
		if err != nil {
			t.Fatal(err)
		}
		s.SetReschedulePolicy(hosts)
		if err := simdag.ScheduleMinMin(s, hosts); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Simulate(); err != nil {
			t.Fatal(err)
		}
		if inj.Applied() == 0 {
			t.Fatal("no fault event applied: the run no longer exercises failures")
		}
		wan := 0
		for _, task := range s.Tasks() {
			if src, dst := task.Endpoints(); task.Kind() == simdag.Comm && src[:len("grid2x4-s0")] != dst[:len("grid2x4-s0")] {
				wan++
			}
		}
		if wan == 0 {
			t.Fatal("no transfer crosses the fatpipe WAN links")
		}
		stats := solverStats(t, s.Model().MetricsInto)
		if stats != want {
			t.Errorf("solver stats %#v, want %#v", stats, want)
		}
		return []byte(fmt.Sprintf("%+v", stats))
	})
}
