package msg

import (
	"runtime"
	"runtime/debug"
	"testing"
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
