package core

import (
	"sync"

	"repro/internal/pool"
)

// This file is the factory for the pooled process workers: the only
// place allowed to construct a worker by composite literal, and the
// only sanctioned goroutine spawn site on kernel paths (simgrid-lint's
// pool-literal and det-goroutine rules both point here).
//
// A worker is a parked goroutine that lends its stack to one simulated
// process at a time. Spawning a process costs a fresh goroutine (stack
// allocation, GC stack-scan registration) only when the pool is empty;
// otherwise a scrubbed worker is re-armed, so churn-heavy runs — and
// runs on a *fresh engine*, since the pool is package-level and
// outlives any single Engine — stop paying per-spawn stack costs.
// Build with -tags=nopool to always spawn fresh, single-use goroutines
// (the reference behaviour the equivalence suite replays against).

// worker is a reusable carrier goroutine for simulated processes. Its
// resume channel doubles as the process's wake channel for the whole
// assignment (Process.resume aliases it); proc is the current
// assignment, nil while parked in the pool.
//
// The channel is buffered (capacity 1) so a dispatch never blocks on a
// worker that is still unwinding its previous process: the kernel turn
// can run on the dying process's own stack and hand that same worker
// its next assignment before the worker has looped back to its
// receive. Sends and receives stay strictly 1:1 per park, so the
// buffer never holds a stale wake.
type worker struct {
	resume chan error
	proc   *Process
}

// workerPool is the package-level free list of parked workers, shared
// across engines (a simulation binary typically builds many short
// engines over its life; their processes reuse one stack population).
// It is the only cross-engine state in the package, hence the only
// mutex: engines themselves are single-threaded by the kernel token.
var workerPool struct {
	sync.Mutex
	free pool.List[*worker]
}

// maxPooledWorkers bounds the parked population; beyond it, finished
// workers exit instead of parking (their stacks are returned to the
// runtime). The bound exists to cap memory after a one-off spike of
// concurrent processes, not to size steady state.
const maxPooledWorkers = 1 << 15

// grabWorker returns a parked worker, or nil when the pool is empty or
// pooling is disabled (the caller then creates a fresh one).
func grabWorker() *worker {
	workerPool.Lock()
	defer workerPool.Unlock()
	w, _ := workerPool.free.Get()
	return w
}

// releaseWorker scrubs the worker and parks it in the pool, reporting
// whether it was retained (false: the caller's loop must exit and let
// the goroutine die). The caller guarantees the worker's process is
// terminated and its resume channel drained — dispatch sends exactly
// one wake per park and the worker consumed the last one to get here.
func releaseWorker(w *worker) bool {
	w.proc = nil
	workerPool.Lock()
	defer workerPool.Unlock()
	n := workerPool.free.Len()
	if n < maxPooledWorkers {
		workerPool.free.Put(w)
	}
	return workerPool.free.Len() > n // Put keeps nothing with pooling off
}

// workerPoolStat reports the shared worker-stack free list's
// scoreboard: hits are processes that reused a parked stack, misses
// are grabs that fell through to a fresh goroutine spawn.
func workerPoolStat() pool.Stat {
	workerPool.Lock()
	defer workerPool.Unlock()
	return workerPool.free.Stat()
}

// newWorker creates a fresh carrier goroutine — THE goroutine spawn
// site of the kernel (det-goroutine allowlists exactly this function).
// The goroutine runs processes assigned to it until releaseWorker
// declines to retain it.
func newWorker() *worker {
	w := &worker{resume: make(chan error, 1)}
	go w.loop()
	return w
}

// loop runs one assigned process per iteration: wait for the first
// schedule, execute the body, finalize, re-park. The worker repools
// itself BEFORE handing the kernel token on, so the very next Spawn in
// program order — even one issued by the kernel turn running on this
// worker's own dying stack — deterministically finds it: fresh-spawn
// counts are a pure function of the workload, not of goroutine timing.
func (w *worker) loop() {
	for {
		err := <-w.resume // first schedule of the current assignment
		p := w.proc
		e := p.engine
		if err == nil && p.killed {
			err = ErrKilled // killed before it ever ran
		}
		if err == nil {
			runProcessBody(e, p)
		} else {
			p.err = err
		}
		e.terminate(p)
		recycled := releaseWorker(w)
		// The dying process passes the kernel token on itself (self is
		// nil: a Done process is never re-scheduled).
		e.releaseToken(nil)
		if !recycled {
			return
		}
	}
}
