// Tests for the worker pool: scrub-on-recycle, pooled-vs-fresh
// equivalence, and the Spawned / GoroutineSpawns / GoroutinesPeak
// accounting split (logical process starts vs real stacks).
package core

import (
	"fmt"
	"testing"

	"repro/internal/pool"
)

// TestProcessPoolScrubbed pins the recycle contract: every worker
// parked in the pool carries no reference to its previous assignment.
func TestProcessPoolScrubbed(t *testing.T) {
	e := New()
	for i := 0; i < 20; i++ {
		d := float64(i) * 0.01
		e.Spawn(fmt.Sprintf("p%d", i), nil, func(p *Process) {
			_ = p.Sleep(d)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	workerPool.Lock()
	defer workerPool.Unlock()
	if workerPool.free.Len() == 0 {
		t.Fatal("no worker was ever pooled")
	}
	for i, w := range workerPool.free.Items() {
		if w.proc != nil {
			t.Errorf("pooled worker %d still references process %q", i, w.proc.name)
		}
	}
}

// TestWorkerPoolingEquivalence replays the same churny workload —
// sleeps, mid-run spawns, kills — with the worker pool on and off and
// requires a bit-identical event log: recycling carrier goroutines
// must be unobservable to the simulation.
func TestWorkerPoolingEquivalence(t *testing.T) {
	run := func(pooled bool) []string {
		defer func(old bool) { pool.Enabled = old }(pool.Enabled)
		pool.Enabled = pooled
		e := New()
		var log []string
		record := func(tag string) {
			log = append(log, fmt.Sprintf("%.3f %s", e.Now(), tag))
		}
		var victims []*Process
		for i := 0; i < 6; i++ {
			i := i
			p := e.Spawn(fmt.Sprintf("p%d", i), nil, func(p *Process) {
				// Each process spawns a child mid-life; two of them are
				// killed before their second sleep completes.
				if err := p.Sleep(0.1 * float64(i+1)); err != nil {
					return
				}
				p.engine.Spawn(fmt.Sprintf("c%d", i), nil, func(c *Process) {
					_ = c.Sleep(0.05)
					record("child " + c.name)
				})
				record("parent " + p.name)
				if err := p.Sleep(1.0); err != nil {
					return
				}
				record("late " + p.name)
			})
			if i%3 == 0 {
				victims = append(victims, p)
			}
		}
		e.At(0.85, func() {
			for _, v := range victims {
				record("kill " + v.name)
				v.Kill()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run(pool=%v): %v", pooled, err)
		}
		return log
	}

	pooled := run(true)
	fresh := run(false)
	if len(pooled) != len(fresh) {
		t.Fatalf("log lengths differ: pooled %d, fresh %d", len(pooled), len(fresh))
	}
	for i := range pooled {
		if pooled[i] != fresh[i] {
			t.Fatalf("event %d diverged: pooled %q, fresh %q", i, pooled[i], fresh[i])
		}
	}
}

// TestSpawnedVsGoroutineAccounting pins the accounting split: Spawned
// counts logical process starts, GoroutineSpawns counts fresh stacks
// (zero on a warm pool), GoroutinesPeak the concurrent stack
// high-water mark.
func TestSpawnedVsGoroutineAccounting(t *testing.T) {
	sleeper := func(p *Process) { _ = p.Sleep(0.1) }

	// Warm the pool with 9 concurrent processes (peak is a concurrency
	// high-water mark, independent of whether stacks came from the pool).
	e1 := New()
	for i := 0; i < 9; i++ {
		e1.Spawn(fmt.Sprintf("w%d", i), nil, sleeper)
	}
	if err := e1.Run(); err != nil {
		t.Fatalf("warmup Run: %v", err)
	}
	if e1.goPeak != 9 {
		t.Errorf("warmup goroutine peak = %d, want 9", e1.goPeak)
	}

	// Same concurrency on a fresh engine, in two waves (a keeper stays
	// alive so the t=0.2 timer spawning the second wave still fires):
	// 17 logical starts, zero fresh stacks, peak 9.
	e2 := New()
	e2.Spawn("keeper", nil, func(p *Process) { _ = p.Sleep(0.5) })
	for i := 0; i < 8; i++ {
		e2.Spawn(fmt.Sprintf("a%d", i), nil, sleeper)
	}
	e2.At(0.2, func() {
		for i := 0; i < 8; i++ {
			e2.Spawn(fmt.Sprintf("b%d", i), nil, sleeper)
		}
	})
	if err := e2.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := e2.Spawned(); got != 17 {
		t.Errorf("Spawned() = %d, want 17 logical starts", got)
	}
	if got := e2.GoroutineSpawns(); got != 0 {
		t.Errorf("GoroutineSpawns() = %d, want 0 (warm pool)", got)
	}
	if got := e2.goPeak; got != 9 {
		t.Errorf("goroutine peak = %d, want 9", got)
	}
}
