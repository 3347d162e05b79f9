//go:build go1.23

package core

import (
	"iter"
	"sync"

	"repro/internal/pool"
)

// This file is the factory for the pooled process workers: the only
// place allowed to construct a worker by composite literal, and the
// only place that starts a coroutine (simgrid-lint's pool-literal and
// det-goroutine rules both point here).
//
// A worker is a parked coroutine that lends its stack to one simulated
// process at a time. Spawning a process costs a fresh coroutine (stack
// allocation, GC stack-scan registration) only when the pool is empty;
// otherwise a scrubbed worker is re-armed, so churn-heavy runs — and
// runs on a *fresh engine*, since the pool is package-level and
// outlives any single Engine — stop paying per-spawn stack costs.
// With the free lists off (tests only) every process starts a fresh,
// single-use coroutine: the reference the equivalence suite replays.
//
// iter.Pull is Go 1.23 standard library: the build constraint above
// raises this file's language version past go.mod's 1.21, which the
// benchmark module's own go.mod (bench/) also declares.

// worker is a reusable carrier coroutine for simulated processes. The
// kernel loop resumes it with next; its process parks with yield.
// proc is the current assignment, nil while parked in the pool.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	proc  *Process
}

// workerPool is the package-level free list of parked workers, shared
// across engines (a simulation binary typically builds many short
// engines over its life; their processes reuse one stack population).
// It is the only cross-engine state in the package, hence the only
// mutex: each engine resumes its coroutines from its own drive loop.
var workerPool struct {
	sync.Mutex
	free pool.List[*worker]
}

// maxPooledWorkers bounds the parked population; beyond it, finished
// workers are stopped instead of parking (their stacks are returned to
// the runtime). The bound exists to cap memory after a one-off spike
// of concurrent processes, not to size steady state.
const maxPooledWorkers = 1 << 15

// grabWorker returns a parked worker, or nil when the pool is empty or
// pooling is disabled (the caller then creates a fresh one).
func grabWorker() *worker {
	workerPool.Lock()
	defer workerPool.Unlock()
	w, _ := workerPool.free.Get()
	return w
}

// recycleWorker scrubs a worker whose process has terminated and parks
// it in the pool, or stops its coroutine when the pool declines it.
// The kernel loop calls it as soon as the worker has yielded after its
// process's end, before anything else runs, so the very next Spawn in
// program order finds it: fresh-spawn counts are a pure function of
// the workload. The yield comes first because the pool is shared: once
// parked there, the worker may be resumed from another engine's loop.
func recycleWorker(w *worker) {
	w.proc = nil
	workerPool.Lock()
	n := workerPool.free.Len()
	if n < maxPooledWorkers {
		workerPool.free.Put(w)
	}
	kept := workerPool.free.Len() > n // Put keeps nothing with pooling off
	workerPool.Unlock()
	if !kept {
		w.stop()
	}
}

// workerPoolStat reports the shared worker-stack free list's
// scoreboard: hits are processes that reused a parked stack, misses
// are grabs that fell through to a fresh coroutine.
func workerPoolStat() pool.Stat {
	workerPool.Lock()
	defer workerPool.Unlock()
	return workerPool.free.Stat()
}

// newWorker creates a fresh carrier coroutine — THE place the kernel
// starts one (det-goroutine admits iter.Pull in this function only) — and
// runs it to its first park, so the coroutine is fully built at Spawn
// time. Its body runs the processes assigned to it until
// recycleWorker stops it.
func newWorker() *worker {
	w := &worker{} //lint:allow pool-literal a miss starts a coroutine, and the package-level pool has no engine to own a slab
	w.next, w.stop = iter.Pull(w.loop)
	w.next()
	return w
}

// loop parks between assignments at the top of each iteration; the
// first resume of an assignment runs its process's body, then
// finalizes it. A stop while parked ends the coroutine.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for yield(struct{}{}) {
		p := w.proc
		e := p.engine
		err := p.wakeErr
		if err == nil && p.killed {
			err = ErrKilled // killed before it ever ran
		}
		if err == nil {
			runProcessBody(e, p)
		} else {
			p.err = err
		}
		e.terminate(p)
	}
}
