// MSG-level scaling benchmarks: many processes exchanging tasks through
// the full stack (kernel run queue, mailboxes, fluid model, lazy action
// heap) rather than the bare solver. This is the workload class the
// lazy action management targets: with a linear next-event scan each
// simulation step costs O(concurrent actions), so per-activity cost
// grows with the platform size; with the event heap it stays flat.
//
// Only public APIs are used, so the file can be dropped onto an older
// revision to measure a baseline.
package simgrid

import (
	"fmt"
	"testing"

	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/surf"
)

// msgScalingPlatform builds nPairs disjoint sender/receiver host pairs,
// each wired by a dedicated link. With stagger set, bandwidth and
// latency vary per pair so completions spread out (one event per step,
// the worst case for a linear completion sweep); without it all pairs
// run in lock-step, so every step dirties every component.
func msgScalingPlatform(b *testing.B, nPairs int, stagger bool) *platform.Platform {
	b.Helper()
	pf := platform.New()
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		if err := pf.AddHost(&platform.Host{Name: src, Power: 1e9}); err != nil {
			b.Fatal(err)
		}
		if err := pf.AddHost(&platform.Host{Name: dst, Power: 1e9}); err != nil {
			b.Fatal(err)
		}
		l := &platform.Link{Name: fmt.Sprintf("l%d", i), Bandwidth: 1e8, Latency: 1e-4}
		if stagger {
			l.Bandwidth *= 1 + 0.15*float64(i%7)
			l.Latency *= 1 + float64(i%5)
		}
		if err := pf.AddRoute(src, dst, []*platform.Link{l}); err != nil {
			b.Fatal(err)
		}
	}
	return pf
}

// runMSGScaling simulates nPairs pairs doing rounds of transfer+compute
// each: 2·nPairs·rounds activities total, up to nPairs of them
// concurrent.
func runMSGScaling(b *testing.B, pf *platform.Platform, nPairs, rounds int) {
	b.Helper()
	env := buildScalingEnv(b, pf, nPairs, rounds, true, surf.DefaultConfig())
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMSGScaling is the multi-million-activity end-to-end
// benchmark: ns/activity flat across scales demonstrates that
// NextEventTime and AdvanceTo no longer pay O(actions) per step. Tiers
// up to 1M use goroutine processes (the historical trajectory); the
// 10M tier runs the identical pair workload in declarative chain form
// — goroutine processes at that scale would pay 200k stacks, while
// chains spawn zero. Under -short the big tiers are skipped except
// 10M, which runs reduced as a smoke test of the declarative path.
func BenchmarkMSGScaling(b *testing.B) {
	cases := []struct {
		name   string
		pairs  int
		rounds int
		chains bool
	}{
		{"activities-1k", 50, 10, false},
		{"activities-10k", 500, 10, false},
		{"activities-100k", 5000, 10, false},
		{"activities-1M", 10000, 50, false},
		{"activities-10M", 100000, 50, true},
	}
	for _, c := range cases {
		c := c
		activities := 2 * c.pairs * c.rounds
		b.Run(c.name, func(b *testing.B) {
			if testing.Short() && activities > 200000 {
				if !c.chains {
					b.Skipf("skipping %d activities under -short", activities)
				}
				// Reduced declarative smoke tier: same workload shape,
				// small enough for CI.
				c.pairs, c.rounds = 2000, 5
				activities = 2 * c.pairs * c.rounds
				b.Logf("reduced to %d activities under -short", activities)
			}
			pf := msgScalingPlatform(b, c.pairs, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.chains {
					runMSGScalingChain(b, pf, c.pairs, c.rounds)
				} else {
					runMSGScaling(b, pf, c.pairs, c.rounds)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*activities), "ns/activity")
		})
	}
}

// runMSGScalingChain is runMSGScaling in declarative form, asserting
// the processless contract: zero goroutine spawns for the whole run.
func runMSGScalingChain(b *testing.B, pf *platform.Platform, nPairs, rounds int) {
	b.Helper()
	env := buildScalingEnvChain(b, pf, nPairs, rounds, true, surf.DefaultConfig())
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	if g := env.Engine().GoroutineSpawns(); g != 0 {
		b.Fatalf("declarative run spawned %d goroutines, want 0", g)
	}
	if s := env.Engine().Spawned(); s != 2*nPairs {
		b.Fatalf("Spawned() = %d, want %d logical starts", s, 2*nPairs)
	}
}

// BenchmarkMSGScalingForms is the A/B/C comparison at a fixed tier:
// the same 100k-activity pair workload as (a) goroutine processes with
// pooling off (fresh stacks and fresh records: the -tags=nopool
// behaviour, switched in-process), (b) goroutine processes on the warm
// worker pool, and (c) declarative chains. The deltas isolate what each
// layer saves — (a)→(b) the per-spawn stack and record allocation
// cost, (b)→(c) the block/wake handoff.
func BenchmarkMSGScalingForms(b *testing.B) {
	const pairs, rounds = 5000, 10
	activities := 2 * pairs * rounds
	pf := msgScalingPlatform(b, pairs, true)
	for _, form := range []string{"goroutine-fresh", "goroutine-pooled", "chain"} {
		form := form
		b.Run(form, func(b *testing.B) {
			if testing.Short() {
				b.Skip("skipping forms A/B under -short")
			}
			defer func(old bool) { pool.Enabled = old }(pool.Enabled)
			pool.Enabled = form != "goroutine-fresh"
			b.ReportAllocs()
			b.ResetTimer()
			var peak int
			for i := 0; i < b.N; i++ {
				var env *msg.Environment
				if form == "chain" {
					env = buildScalingEnvChain(b, pf, pairs, rounds, true, surf.DefaultConfig())
				} else {
					env = buildScalingEnv(b, pf, pairs, rounds, true, surf.DefaultConfig())
				}
				if err := env.Run(); err != nil {
					b.Fatal(err)
				}
				peak = env.Engine().GoroutinesPeak()
				if form == "chain" && env.Engine().GoroutineSpawns() != 0 {
					b.Fatal("chain form spawned goroutines")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*activities), "ns/activity")
			b.ReportMetric(float64(peak), "peak-goroutines")
		})
	}
}

// BenchmarkMSGChainChurn measures chain lifecycle cost: a million
// short-lived chains (one compute each) cycled through the ChainProc
// free list, relaunched from OnExit. ns/chain is the full
// start→run→terminate→recycle cost of a logical process with no
// goroutine behind it.
func BenchmarkMSGChainChurn(b *testing.B) {
	const hosts = 100
	total := 1000000
	if testing.Short() {
		total = 10000
	}
	perHost := total / hosts
	pf := msgScalingPlatform(b, hosts, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := msg.NewEnvironment(pf, surf.DefaultConfig())
		spec := msg.NewChain().Compute("w", 1e6).MustBuild()
		var launch func(host string, remaining int)
		launch = func(host string, remaining int) {
			if remaining == 0 {
				return
			}
			if _, err := env.StartChain("w", host, spec, &msg.ChainConfig{
				OnExit: func(error) { launch(host, remaining-1) },
			}); err != nil {
				b.Fatal(err)
			}
		}
		for h := 0; h < hosts; h++ {
			launch(fmt.Sprintf("s%d", h), perHost)
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
		if s := env.Engine().Spawned(); s != hosts*perHost {
			b.Fatalf("Spawned() = %d, want %d", s, hosts*perHost)
		}
		if g := env.Engine().GoroutineSpawns(); g != 0 {
			b.Fatal("chain churn spawned goroutines")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hosts*perHost), "ns/chain")
}

// BenchmarkMSGScalingLockstep is the same-instant completion workload:
// every pair is identical, so each round's transfers (and then each
// round's computes) all finish at the exact same virtual time — the
// worst case for per-completion event processing, which the equal-key
// bulk-pop of the action heap and the contiguous wake sweep answer
// (internal/surf's BenchmarkActionHeapLockstep times that machinery
// against the per-pop test reference).
func BenchmarkMSGScalingLockstep(b *testing.B) {
	cases := []struct {
		name   string
		pairs  int
		rounds int
	}{
		{"pairs-500", 500, 10},
		{"pairs-5000", 5000, 10},
	}
	for _, c := range cases {
		activities := 2 * c.pairs * c.rounds
		b.Run(c.name, func(b *testing.B) {
			if testing.Short() && activities > 20000 {
				b.Skipf("skipping %d activities under -short", activities)
			}
			pf := msgScalingPlatform(b, c.pairs, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env := buildScalingEnv(b, pf, c.pairs, c.rounds, false, surf.DefaultConfig())
				if err := env.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*activities), "ns/activity")
		})
	}
}

// buildScalingEnvChain is buildScalingEnv expressed as declarative
// chains: the identical pair workload with zero goroutines. The sender
// allocates its task once (PutReg reuses it every round), matching the
// zero-churn steady state of the rendezvous free lists.
func buildScalingEnvChain(b *testing.B, pf *platform.Platform, nPairs, rounds int, stagger bool, cfg surf.Config) *msg.Environment {
	b.Helper()
	env := msg.NewEnvironment(pf, cfg)
	const channel = 1
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		bytes, flops := 1e5, 1e6
		if stagger {
			bytes *= 1 + float64(i%9)
			flops *= 1 + float64(i%4)
		}
		taskBytes := bytes
		recv := msg.NewChain().
			Loop(rounds).
			Get(channel).
			End().
			MustBuild()
		if _, err := env.StartChain("recv", dst, recv, nil); err != nil {
			b.Fatal(err)
		}
		send := msg.NewChain().
			Do(func(c *msg.ChainProc) { c.SetTask(msg.NewTask("t", 0, taskBytes)) }).
			Loop(rounds).
			PutReg(dst, channel).
			Compute("c", flops).
			End().
			MustBuild()
		if _, err := env.StartChain("send", src, send, nil); err != nil {
			b.Fatal(err)
		}
	}
	return env
}

func buildScalingEnv(b *testing.B, pf *platform.Platform, nPairs, rounds int, stagger bool, cfg surf.Config) *msg.Environment {
	b.Helper()
	env := msg.NewEnvironment(pf, cfg)
	const channel = 1
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		bytes, flops := 1e5, 1e6
		if stagger {
			bytes *= 1 + float64(i%9)
			flops *= 1 + float64(i%4)
		}
		if _, err := env.NewProcess("recv", dst, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if _, err := p.Get(channel); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
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
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	return env
}
