// SimDag scaling benchmarks: the zero-goroutine claim quantified. The
// chain workload mirrors BenchmarkMSGScaling's pair workload — many
// disjoint host pairs, alternating compute and transfer — so ns/task
// here is directly comparable to ns/activity there, minus the process
// goroutines, channel handoffs and mailbox bookkeeping the DAG path
// never pays.
package simdag

import (
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/surf"
)

// chainPlatform builds nChains disjoint host pairs with a dedicated,
// slightly staggered link each (one connected component per chain, the
// same shape as msgScalingPlatform).
func chainPlatform(b *testing.B, nChains int) *platform.Platform {
	b.Helper()
	pf := platform.New()
	for i := 0; i < nChains; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		if err := pf.AddHost(&platform.Host{Name: src, Power: 1e9}); err != nil {
			b.Fatal(err)
		}
		if err := pf.AddHost(&platform.Host{Name: dst, Power: 1e9}); err != nil {
			b.Fatal(err)
		}
		l := &platform.Link{
			Name:      fmt.Sprintf("l%d", i),
			Bandwidth: 1e8 * (1 + 0.15*float64(i%7)),
			Latency:   1e-4 * (1 + float64(i%5)),
		}
		if err := pf.AddRoute(src, dst, []*platform.Link{l}); err != nil {
			b.Fatal(err)
		}
	}
	return pf
}

// buildChains populates the simulation with nChains independent
// compute→comm→compute→… chains and returns the total task count.
func buildChains(b *testing.B, s *Simulation, nChains, rounds int) int {
	b.Helper()
	n := 0
	for i := 0; i < nChains; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		bytes := 1e5 * (1 + float64(i%9))
		flops := 1e6 * (1 + float64(i%4))
		var prev *Task
		for r := 0; r < rounds; r++ {
			c := s.NewTask(fmt.Sprintf("c%d_%d", i, r), flops)
			if err := c.Schedule(src); err != nil {
				b.Fatal(err)
			}
			x := s.NewCommTask(fmt.Sprintf("x%d_%d", i, r), bytes)
			if err := x.ScheduleComm(src, dst); err != nil {
				b.Fatal(err)
			}
			if prev != nil {
				if err := s.AddDependency(prev, c); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.AddDependency(c, x); err != nil {
				b.Fatal(err)
			}
			prev = x
			n += 2
		}
	}
	return n
}

// BenchmarkSimDagScaling runs up to 100k DAG tasks through the kernel
// with zero process goroutines; flat ns/task across scales shows the
// per-task cost is independent of the DAG size, and the absolute value
// is the per-activity cost of the stack without the process layer
// (acceptance: within 2× of BenchmarkMSGScaling's ns/activity — in
// practice it is lower).
func BenchmarkSimDagScaling(b *testing.B) {
	cases := []struct {
		name   string
		chains int
		rounds int
	}{
		{"tasks-1k", 50, 10},
		{"tasks-10k", 500, 10},
		{"tasks-100k", 5000, 10},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			pf := chainPlatform(b, c.chains)
			tasks := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := New(pf, surf.DefaultConfig())
				tasks = buildChains(b, s, c.chains, c.rounds)
				if _, err := s.Simulate(); err != nil {
					b.Fatal(err)
				}
				if s.DoneCount() != tasks {
					b.Fatalf("only %d/%d tasks done", s.DoneCount(), tasks)
				}
				if g := s.Engine().Spawned(); g != 0 {
					b.Fatalf("%d process goroutines spawned, want 0", g)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
		})
	}
}

// BenchmarkSimDagRandom exercises the generator + min-min + shared
// Waxman platform path end-to-end (contended components, route cache).
func BenchmarkSimDagRandom(b *testing.B) {
	pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(16, 7))
	if err != nil {
		b.Fatal(err)
	}
	var hosts []string
	for _, h := range pf.Hosts() {
		hosts = append(hosts, h.Name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(pf, surf.DefaultConfig())
		tasks, err := RandomLayered(s, DefaultRandomConfig(12, 50, 99))
		if err != nil {
			b.Fatal(err)
		}
		if err := ScheduleMinMin(s, hosts); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Simulate(); err != nil {
			b.Fatal(err)
		}
		if s.DoneCount() != len(tasks) {
			b.Fatalf("only %d/%d tasks done", s.DoneCount(), len(tasks))
		}
	}
}

// campaignShapes are the two `sweep_campaign` platforms of the repo
// benchmark (bench/workloads.go): a homogeneous 32-host cluster and a
// seeded 24-node Waxman topology.
func campaignShapes(tb testing.TB) map[string]*platform.Platform {
	tb.Helper()
	cluster, _, err := platform.NewCluster(platform.ClusterConfig{
		Prefix: "cluster32", Hosts: 32, Power: 1e9, Bandwidth: 1.25e8, Latency: 1e-4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	waxman, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(24, 7))
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*platform.Platform{"cluster32": cluster, "waxman24": waxman}
}

// campaignDAG is the campaign's workload: a 20×40 layered DAG with a
// tenth of the layer members drawn as 2-slot ptasks.
func campaignDAG(tb testing.TB, pf *platform.Platform) (*Simulation, []string) {
	tb.Helper()
	s := New(pf, surf.DefaultConfig())
	cfg := DefaultRandomConfig(20, 40, 1)
	cfg.PtaskProb, cfg.PtaskSlots = 0.1, 2
	if _, err := RandomLayered(s, cfg); err != nil {
		tb.Fatal(err)
	}
	var hosts []string
	for _, h := range pf.Hosts() {
		hosts = append(hosts, h.Name)
	}
	return s, hosts
}

// benchScheduler times one placement pass (DAG generation excluded) on
// each campaign shape; ns/op over the DAG's ~1200 tasks is the
// scheduler's share of `sweep_campaign`.
func benchScheduler(b *testing.B, sched func(*Simulation, []string) error) {
	shapes := campaignShapes(b)
	for _, name := range []string{"cluster32", "waxman24"} {
		pf := shapes[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, hosts := campaignDAG(b, pf)
				b.StartTimer()
				if err := sched(s, hosts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScheduleMinMin(b *testing.B) { benchScheduler(b, ScheduleMinMin) }
func BenchmarkScheduleHEFT(b *testing.B)   { benchScheduler(b, ScheduleHEFT) }
