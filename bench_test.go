// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index):
//
//	E1/E2 BenchmarkFigValidation*   — fluid vs packet rates and speed
//	E3    BenchmarkFigGantt         — the 2-server / 3-client execution
//	E4    BenchmarkFigMaxMin        — the MaxMin fairness solver
//	E5    BenchmarkTableLANPastry   — LAN message-exchange table
//	E6    BenchmarkTableWANPastry   — WAN message-exchange table
//	E7    BenchmarkSMPIMatmul       — the SMPI 1-D matrix multiply
//	      BenchmarkAblation*        — design-choice ablations
//
// Custom metrics: accuracy benches report mean|err| vs the packet
// comparator as "err%"; Pastry benches report the modelled exchange
// time as "ms/exchange".
package simgrid

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gantt"
	"repro/internal/gras/codec"
	"repro/internal/instr"
	"repro/internal/maxmin"
	"repro/internal/msg"
	"repro/internal/packet"
	"repro/internal/pastry"
	"repro/internal/platform"
	"repro/internal/smpi"
	"repro/internal/surf"
	"repro/internal/validate"
)

// validationSetup builds the E1 workload at a bench-friendly scale
// (8 routers, 5 flows × 20 MB; cmd/validate runs the paper-scale one).
func validationSetup(b *testing.B) (*platform.Platform, []validate.FlowSpec) {
	b.Helper()
	pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(8, 42))
	if err != nil {
		b.Fatal(err)
	}
	return pf, validate.RandomFlows(pf, 5, 20e6, 7)
}

// BenchmarkFigValidationFluid times the SimGrid side of the validation
// figure (E1): one full fluid simulation of the flow set per iteration.
func BenchmarkFigValidationFluid(b *testing.B) {
	pf, flows := validationSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := validate.RunFluid(pf, flows, surf.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigValidationPacketNS2 times the NS2 comparator on the same
// workload; the ns/op ratio against the fluid bench is the paper's
// "orders of magnitude faster" claim (E2).
func BenchmarkFigValidationPacketNS2(b *testing.B) {
	pf, flows := validationSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := validate.RunPacket(pf, flows, packet.VariantNS2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigValidationAccuracy reports the fluid model's mean
// absolute rate error vs both packet comparators (the ±15% figure).
func BenchmarkFigValidationAccuracy(b *testing.B) {
	pf, flows := validationSetup(b)
	var errPct float64
	for i := 0; i < b.N; i++ {
		res, err := validate.Run(pf, flows, surf.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		errPct = 100 * res.MeanAbsErrVsNS2()
	}
	b.ReportMetric(errPct, "err%")
}

// BenchmarkFigGantt runs the paper's Gantt-figure scenario (E3):
// 3 clients × 2 servers exchanging 30 MFlop / 3.2 MB tasks.
func BenchmarkFigGantt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pf := platform.New()
		if err := pf.AddRouter("hub"); err != nil {
			b.Fatal(err)
		}
		servers := []string{"server1", "server2"}
		clients := []string{"client1", "client2", "client3"}
		for _, n := range append(append([]string{}, servers...), clients...) {
			if err := pf.AddHost(&platform.Host{Name: n, Power: 1e9}); err != nil {
				b.Fatal(err)
			}
			l := &platform.Link{Name: "lan-" + n, Bandwidth: 1.25e7, Latency: 0.0001}
			if err := pf.Connect(n, "hub", l); err != nil {
				b.Fatal(err)
			}
		}
		if err := pf.ComputeRoutes(); err != nil {
			b.Fatal(err)
		}
		env := msg.NewEnvironment(pf, surf.DefaultConfig())
		var traced bytes.Buffer
		env.EnableTrace(instr.NewTrace(&traced))
		for _, s := range servers {
			if _, err := env.NewProcess(s, s, func(p *msg.Process) error {
				p.Daemonize()
				for {
					task, err := p.Get(22)
					if err != nil {
						return err
					}
					if err := p.Execute(task); err != nil {
						return err
					}
					if err := p.Put(msg.NewTask("Ack", 0, 1e4), task.Source().Name, 23); err != nil {
						return err
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
		for ci, c := range clients {
			server := servers[ci%2]
			if _, err := env.NewProcess(c, c, func(p *msg.Process) error {
				if err := p.Put(msg.NewTask("Remote", 30e6, 3.2e6), server, 22); err != nil {
					return err
				}
				if err := p.Execute(msg.NewTask("Local", 10.5e6, 3.2e6)); err != nil {
					return err
				}
				_, err := p.Get(23)
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
		if err := env.Trace().Close(); err != nil {
			b.Fatal(err)
		}
		td, err := instr.ReadTrace(&traced)
		if err != nil {
			b.Fatal(err)
		}
		if len(gantt.FromTrace(td, "PSTATE").Intervals()) == 0 {
			b.Fatal("no gantt intervals in the trace")
		}
	}
}

// BenchmarkFigMaxMin solves the paper's MaxMin illustration (E4) plus a
// large random sharing system per iteration — the inner loop of every
// simulation step.
func BenchmarkFigMaxMin(b *testing.B) {
	b.Run("paper-illustration", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := maxmin.NewSystem()
			shared := s.NewConstraint(100)
			private := s.NewConstraint(60)
			for j := 0; j < 3; j++ {
				s.Expand(shared, s.NewVariable(1, 0), 1)
			}
			s.Expand(private, s.NewVariable(1, 0), 1)
			s.Solve()
		}
	})
	b.Run("500flows-100links", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := maxmin.NewSystem()
			cnsts := make([]*maxmin.Constraint, 100)
			for j := range cnsts {
				cnsts[j] = s.NewConstraint(float64(10 + j%17))
			}
			for j := 0; j < 500; j++ {
				v := s.NewVariable(1, 0)
				s.Expand(cnsts[j%100], v, 1)
				s.Expand(cnsts[(j*7+3)%100], v, 1)
				s.Expand(cnsts[(j*13+9)%100], v, 1)
			}
			s.Solve()
		}
	})
	// Scaling suite: sparse-churn workloads where only a handful of
	// flows mutate per simulation step, the regime the incremental
	// ("selective update") solver targets. `incremental` re-solves only
	// the dirty connected components; `full-recompute` forces the
	// from-scratch progressive filling the seed solver performed on
	// every step (the two produce identical allocations — see
	// TestIncrementalEquivalenceProperty; -tags=simcheck certifies both).
	for _, n := range []int{100, 1000, 10000} {
		for _, full := range []bool{false, true} {
			mode := "incremental"
			if full {
				mode = "full-recompute"
			}
			b.Run(fmt.Sprintf("churn-flows-%d/%s", n, mode), func(b *testing.B) {
				b.ReportAllocs()
				benchMaxMinFlowChurn(b, n, full)
			})
			b.Run(fmt.Sprintf("churn-compute-%d/%s", n, mode), func(b *testing.B) {
				b.ReportAllocs()
				benchMaxMinComputeChurn(b, n, full)
			})
		}
	}
}

// maxminFlowChurn is a MaxMin-level model of a federated grid: flows
// routed over independent Waxman islands (16 routers + 16 hosts each),
// so churn in one island never disturbs the components of the others.
// Links are mapped to constraints exactly like surf.New does for the
// validation platforms: split-duplex links (which is what the Waxman
// generator emits) get one independent constraint per direction, and
// routes resolve to the constraints of the traversed direction.
type maxminFlowChurn struct {
	sys    *maxmin.System
	routes [][]*maxmin.Constraint // precomputed candidate (directed) routes
	flows  []*maxmin.Variable     // live flow ring
	next   int                    // next candidate route to use
}

func (cb *maxminFlowChurn) newFlow() *maxmin.Variable {
	r := cb.routes[cb.next%len(cb.routes)]
	cb.next++
	v := cb.sys.NewVariable(1, 0)
	for _, c := range r {
		cb.sys.Expand(c, v, 1)
	}
	return v
}

// newMaxMinFlowChurn builds the island federation with nFlows live
// flows, their link constraints, and a pool of precomputed routes so
// the benchmark loop measures solver work only.
func newMaxMinFlowChurn(b *testing.B, nFlows int) *maxminFlowChurn {
	b.Helper()
	const islandSize = 16
	nIslands := (nFlows-1)/50 + 1
	cb := &maxminFlowChurn{sys: maxmin.NewSystem()}
	for isl := 0; isl < nIslands; isl++ {
		pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(islandSize, int64(1000+isl)))
		if err != nil {
			b.Fatal(err)
		}
		// Waxman links are split-duplex: one constraint per direction,
		// indexed like the link's Ends, which Route.Dir picks from.
		cnst := make(map[*platform.Link][2]*maxmin.Constraint)
		for _, l := range pf.Links() {
			cnst[l] = [2]*maxmin.Constraint{cb.sys.NewConstraint(l.Bandwidth), cb.sys.NewConstraint(l.Bandwidth)}
		}
		// Deterministic intra-island host pairs, each flow consuming the
		// traversed direction of every link on its route only.
		for k := 0; k < 2*nFlows/nIslands+2; k++ {
			src := fmt.Sprintf("host%d", (k*5+isl)%islandSize)
			dst := fmt.Sprintf("host%d", (k*11+7)%islandSize)
			if src == dst {
				continue
			}
			r, err := pf.Route(src, dst)
			if err != nil {
				continue
			}
			cs := make([]*maxmin.Constraint, len(r.Links))
			for i, l := range r.Links {
				cs[i] = cnst[l][r.Dir(i)]
			}
			cb.routes = append(cb.routes, cs)
		}
	}
	if len(cb.routes) == 0 {
		b.Fatal("flow churn setup produced no usable routes")
	}
	for i := 0; i < nFlows; i++ {
		cb.flows = append(cb.flows, cb.newFlow())
	}
	return cb
}

// benchMaxMinFlowChurn measures one sparse churn step per iteration:
// 10 flows finish, 10 new ones start, the system re-solves.
func benchMaxMinFlowChurn(b *testing.B, nFlows int, fullRecompute bool) {
	cb := newMaxMinFlowChurn(b, nFlows)
	cb.sys.Solve()
	const churn = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < churn; k++ {
			idx := (i*churn + k) % len(cb.flows)
			cb.sys.RemoveVariable(cb.flows[idx])
			cb.flows[idx] = cb.newFlow()
		}
		if fullRecompute {
			cb.sys.InvalidateAll()
		}
		cb.sys.Solve()
	}
}

// benchMaxMinComputeChurn mirrors BenchmarkKernelProcessChurn at the
// solver level: nHosts CPUs each running a few tasks, with a handful of
// tasks finishing and spawning per step (every host is its own
// connected component).
func benchMaxMinComputeChurn(b *testing.B, nHosts int, fullRecompute bool) {
	sys := maxmin.NewSystem()
	cpus := make([]*maxmin.Constraint, nHosts)
	for i := range cpus {
		cpus[i] = sys.NewConstraint(1e9)
	}
	var tasks []*maxmin.Variable
	spawn := func(host int) *maxmin.Variable {
		v := sys.NewVariable(1+float64(host%3), 0)
		sys.Expand(cpus[host], v, 1)
		return v
	}
	for i := 0; i < 3*nHosts; i++ {
		tasks = append(tasks, spawn(i%nHosts))
	}
	sys.Solve()
	const churn = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < churn; k++ {
			idx := (i*churn + k) % len(tasks)
			sys.RemoveVariable(tasks[idx])
			tasks[idx] = spawn((i + k*31) % nHosts)
		}
		if fullRecompute {
			sys.InvalidateAll()
		}
		sys.Solve()
	}
}

// pastryBench runs the E5/E6 table cells as sub-benchmarks, reporting
// the modelled exchange time over the given network.
func pastryBench(b *testing.B, net pastry.Net) {
	msgSample := pastry.Sample()
	desc, err := codec.Describe(msgSample)
	if err != nil {
		b.Fatal(err)
	}
	pairs := []struct {
		name     string
		from, to codec.Arch
	}{
		{"homogeneous-x86", codec.ArchX86, codec.ArchX86},
		{"cross-endian-x86-to-sparc", codec.ArchX86, codec.ArchSparc},
	}
	for _, cdc := range codec.All() {
		for _, pair := range pairs {
			b.Run(fmt.Sprintf("%s/%s", cdc.Name(), pair.name), func(b *testing.B) {
				frame, err := cdc.Encode(desc, msgSample, pair.from)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := cdc.Encode(desc, msgSample, pair.from)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := cdc.Decode(desc, out, pair.to); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1e9
				exchange := perOp + net.Latency + float64(len(frame))/net.Bandwidth
				b.ReportMetric(exchange*1e3, "ms/exchange")
				b.ReportMetric(float64(len(frame)), "wire-bytes")
			})
		}
	}
}

// BenchmarkTableLANPastry regenerates the LAN Pastry table (E5).
func BenchmarkTableLANPastry(b *testing.B) { pastryBench(b, pastry.LAN) }

// BenchmarkTableWANPastry regenerates the WAN Pastry table (E6).
func BenchmarkTableWANPastry(b *testing.B) { pastryBench(b, pastry.WAN) }

// BenchmarkSMPIMatmul runs the SMPI 1-D matrix multiplication (E7) on
// homogeneous and heterogeneous clusters, reporting simulated makespan.
func BenchmarkSMPIMatmul(b *testing.B) {
	run := func(b *testing.B, powers []float64) {
		var makespan float64
		for i := 0; i < b.N; i++ {
			pf := platform.New()
			if err := pf.AddRouter("sw"); err != nil {
				b.Fatal(err)
			}
			hosts := make([]string, len(powers))
			for j, p := range powers {
				hosts[j] = fmt.Sprintf("n%d", j)
				if err := pf.AddHost(&platform.Host{Name: hosts[j], Power: p}); err != nil {
					b.Fatal(err)
				}
				l := &platform.Link{Name: "e" + hosts[j], Bandwidth: 1.25e8, Latency: 5e-5}
				if err := pf.Connect(hosts[j], "sw", l); err != nil {
					b.Fatal(err)
				}
			}
			if err := pf.ComputeRoutes(); err != nil {
				b.Fatal(err)
			}
			w, err := smpi.New(pf, surf.DefaultConfig(), hosts)
			if err != nil {
				b.Fatal(err)
			}
			makespan, err = smpi.RunMatMul(w, smpi.MatMulConfig{M: 64, N: 64, K: 64}, 0.0005, false)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(makespan, "sim-makespan-s")
	}
	b.Run("homogeneous-4x1G", func(b *testing.B) {
		run(b, []float64{1e9, 1e9, 1e9, 1e9})
	})
	b.Run("heterogeneous-one-slow", func(b *testing.B) {
		run(b, []float64{1e9, 1e9, 1e9, 2.5e8})
	})
}

// BenchmarkAblationRTTWeighting compares the fluid model's accuracy
// with and without the 1/RTT weighting (the CM02 design choice that
// reproduces TCP's RTT unfairness).
func BenchmarkAblationRTTWeighting(b *testing.B) {
	pf, flows := validationSetup(b)
	ns2, err := validate.RunPacket(pf, flows, packet.VariantNS2)
	if err != nil {
		b.Fatal(err)
	}
	meanErr := func(rates []float64) float64 {
		sum := 0.0
		for i := range rates {
			d := (rates[i] - ns2[i]) / ns2[i]
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return 100 * sum / float64(len(rates))
	}
	for _, withRTT := range []bool{true, false} {
		name := "with-rtt-weighting"
		if !withRTT {
			name = "without-rtt-weighting"
		}
		b.Run(name, func(b *testing.B) {
			cfg := surf.DefaultConfig()
			cfg.WeightByRTT = withRTT
			var e float64
			for i := 0; i < b.N; i++ {
				rates, err := validate.RunFluid(pf, flows, cfg)
				if err != nil {
					b.Fatal(err)
				}
				e = meanErr(rates)
			}
			b.ReportMetric(e, "err%")
		})
	}
}

// BenchmarkAblationTCPGamma measures the effect of the TCP window
// bound on a long fat pipe: without the gamma cap the fluid model
// overestimates a window-limited flow's rate.
func BenchmarkAblationTCPGamma(b *testing.B) {
	pf := platform.New()
	if err := pf.AddHost(&platform.Host{Name: "a", Power: 1e9}); err != nil {
		b.Fatal(err)
	}
	if err := pf.AddHost(&platform.Host{Name: "b", Power: 1e9}); err != nil {
		b.Fatal(err)
	}
	// Long fat pipe: 1 Gbit/s, 50 ms: gamma-bound at 4 MiB window.
	if err := pf.AddRoute("a", "b", []*platform.Link{
		{Name: "lfn", Bandwidth: 1.25e8, Latency: 0.05},
	}); err != nil {
		b.Fatal(err)
	}
	flows := []validate.FlowSpec{{Src: "a", Dst: "b", Bytes: 100e6}}
	for _, gamma := range []float64{4194304, 0} {
		name := "gamma-4MiB"
		if gamma == 0 {
			name = "gamma-off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := surf.DefaultConfig()
			cfg.TCPGamma = gamma
			var rate float64
			for i := 0; i < b.N; i++ {
				rates, err := validate.RunFluid(pf, flows, cfg)
				if err != nil {
					b.Fatal(err)
				}
				rate = rates[0]
			}
			b.ReportMetric(rate/1e6, "MB/s")
		})
	}
}

// BenchmarkKernelProcessChurn measures raw kernel scheduling: spawning,
// sleeping and terminating many simulated processes per run.
func BenchmarkKernelProcessChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := core.New()
		for p := 0; p < 1000; p++ {
			d := float64(p%17) * 0.001
			e.Spawn("p", nil, func(pr *core.Process) { pr.Sleep(d) })
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSGTaskExchange measures the MSG put/get round trip through
// the full stack (kernel + fluid model + mailboxes).
func BenchmarkMSGTaskExchange(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pf := platform.New()
		if err := pf.AddHost(&platform.Host{Name: "a", Power: 1e9}); err != nil {
			b.Fatal(err)
		}
		if err := pf.AddHost(&platform.Host{Name: "b", Power: 1e9}); err != nil {
			b.Fatal(err)
		}
		if err := pf.AddRoute("a", "b", []*platform.Link{
			{Name: "l", Bandwidth: 1.25e8, Latency: 1e-4},
		}); err != nil {
			b.Fatal(err)
		}
		env := msg.NewEnvironment(pf, surf.DefaultConfig())
		const rounds = 100
		if _, err := env.NewProcess("recv", "b", func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if _, err := p.Get(1); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := env.NewProcess("send", "a", func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if err := p.Put(msg.NewTask("t", 0, 1e5), "b", 1); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
