package msg

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"repro/internal/platform"
)

// TestColdStartAllocationBudget: n receivers block on one mailbox of a
// fresh environment and n senders each Put one task to it across the
// one shared link, so every transfer raises the concurrency and none
// finds a recycled object. That first round allocates no more than n/8
// objects and a constant: the records, actions, variables and edges
// come from their owners' slabs, many to a chunk, and only the free
// lists and scratch arrays grow, each log2(n) times. The tasks are made
// beforehand, outside the count.
//
// The runtime's own caches are not the environment's: a first run of the
// same size, with the collector held off until the count is taken, leaves
// parked goroutines (or, with the free lists off, dead ones to reuse) and
// their wait records behind, so the count sees only this package.
func TestColdStartAllocationBudget(t *testing.T) {
	const n = 1024
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	firstRound(t, n)
	allocs, budget := firstRound(t, n), uint64(n/8+256)
	t.Logf("%d objects, budget %d", allocs, budget)
	if allocs > budget {
		t.Errorf("the first round of %d transfers allocated %d objects, budget %d", n, allocs, budget)
	}
}

// firstRound runs one Put/Get round of n pairs on a fresh environment
// and returns the objects the run allocated.
func firstRound(t *testing.T, n int) uint64 {
	env := NewEnvironment(lanPlatform(t), exact())
	got := 0
	for i := 0; i < n; i++ {
		task := NewTask("t", 0, 1e4)
		if _, err := env.NewProcess("recv", "server", func(p *Process) error {
			_, err := p.Get(0)
			got++
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := env.NewProcess("send", "client", func(p *Process) error {
			return p.Put(task, "server", 0)
		}); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := env.Run()
	runtime.ReadMemStats(&m1)
	if err != nil || got != n {
		t.Fatalf("Run = %v with %d of %d tasks received", err, got, n)
	}
	return m1.Mallocs - m0.Mallocs
}

// TestChainPairByteBudget: n chain pairs on private links, each sender
// putting a task to its receiver and then computing, for a few rounds.
// The run recycles every record, action, variable and resources slice
// through the free lists, which grow to about n values each and are
// never copied while they grow: the run phase allocates about 18 B per
// activity, most of it the lists' own storage. Lists regrown by append,
// which rewrite their past on every growth, made that 33 B.
func TestChainPairByteBudget(t *testing.T) {
	const n, rounds = 2000, 5
	pf := platform.New()
	for i := 0; i < n; i++ {
		is := strconv.Itoa(i)
		for _, h := range []string{"s" + is, "r" + is} {
			if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
				t.Fatal(err)
			}
		}
		l := &platform.Link{Name: "l" + is, Bandwidth: 1e8, Latency: 1e-4}
		if err := pf.AddRoute("s"+is, "r"+is, []*platform.Link{l}); err != nil {
			t.Fatal(err)
		}
	}
	env := NewEnvironment(pf, exact())
	recv := NewChain().Loop(rounds).Get(0).End().MustBuild()
	for i := 0; i < n; i++ {
		is := strconv.Itoa(i)
		bytes, flops := 1e5*float64(3+i%4), 1e6*float64(1+i%3)
		send := NewChain().
			Do(func(c *ChainProc) { c.SetTask(NewTask("t", 0, bytes)) }).
			Loop(rounds).PutReg("r"+is, 0).Compute("c", flops).End().
			MustBuild()
		if _, err := env.StartChain("recv", "r"+is, recv, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := env.StartChain("send", "s"+is, send, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := env.Run()
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	perActivity, budget := float64(m1.TotalAlloc-m0.TotalAlloc)/(2*n*rounds), 24.0
	t.Logf("%.2f B per activity, budget %g", perActivity, budget)
	if perActivity > budget {
		t.Errorf("the run phase allocated %.2f B per activity, budget %g", perActivity, budget)
	}
}
