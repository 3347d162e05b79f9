// Package smpi implements the paper's SMPI interface: simulation of
// MPI applications on heterogeneous virtual platforms. Each MPI rank
// runs as a simulated process; point-to-point messages and collectives
// travel through the SURF network model, and SMPI_BENCH-style blocks
// measure real computation once and replay the measured duration in
// virtual time ("automatic (but directed) benchmarking of communication
// and computation costs").
//
// Payloads are passed by reference (all ranks share one address space,
// like MSG tasks); the simulated transfer duration is governed by the
// explicit byte count of each call.
//
// Key invariant: rank-to-rank matching is deterministic — sends and
// receives pair in posting order per (source, tag) queue, so a legal
// MPI program produces the same virtual-time schedule on every run.
package smpi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/surf"
)

// AnySource matches any sending rank in Recv.
const AnySource = -1

// Errors returned by SMPI operations.
var (
	// ErrRank reports an out-of-range rank argument.
	ErrRank = errors.New("smpi: rank out of range")
	// ErrMismatch reports inconsistent collective participation.
	ErrMismatch = errors.New("smpi: collective call mismatch")
)

// Op is a reduction operator.
type Op func(a, b float64) float64

// Builtin reduction operators.
var (
	OpSum = func(a, b float64) float64 { return a + b }
	OpMax = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	OpProd = func(a, b float64) float64 { return a * b }
)

// World is one MPI job: a set of ranks bound to hosts of a platform.
type World struct {
	eng   *core.Engine
	model *surf.Model
	pf    *platform.Platform
	hosts []string
	ranks []*Rank

	sendQ map[chanKey][]*pendingSend
	recvQ map[chanKey][]*pendingRecv

	benchCache map[string]float64

	// ReferencePower is the flop/s of the machine BenchOnce
	// measurements are taken on; a measured second becomes
	// ReferencePower flops, so slower simulated hosts take
	// proportionally longer (the paper's heterogeneity study).
	ReferencePower float64
}

type chanKey struct {
	src, dst, tag int
}

// pendingSend is one posted send; it observes its transfer as the
// action's surf.Completion (ActionDone).
type pendingSend struct {
	w       *World
	key     chanKey // where the record queues while unmatched; key.src is the sender
	data    any
	bytes   float64
	proc    *core.Process
	action  *surf.Action
	eager   bool         // shipped before any receiver matched
	arrived bool         // eager transfer finished before a receiver matched
	recv    *pendingRecv // matched receiver: known from the start (rendezvous) or attached in flight (eager)
}

// ActionDone delivers the finished transfer: the payload to the matched
// receiver on success, then the outcome to both ends. An eager send
// wakes the receiver (if one attached) before the sender, a rendezvous
// the sender before the receiver — the order each protocol has always
// resumed its ranks in, which the schedule's determinism rests on. An
// eager transfer that fails before any receiver attached is over: its
// record leaves the queue, or a later Recv would attach to it and wait
// for a completion that already happened.
func (ps *pendingSend) ActionDone(_ *surf.Action, err error) {
	eng, pr := ps.w.eng, ps.recv
	if pr != nil && err == nil {
		pr.data = ps.data
		pr.src = ps.key.src
	}
	if !ps.eager {
		eng.Wake(ps.proc, err)
		eng.Wake(pr.proc, err)
		return
	}
	ps.arrived = err == nil
	if pr != nil {
		eng.Wake(pr.proc, err)
	} else if err != nil {
		q := ps.w.sendQ[ps.key]
		for i := range q {
			if q[i] == ps {
				ps.w.sendQ[ps.key] = append(q[:i], q[i+1:]...)
				break
			}
		}
	}
	eng.Wake(ps.proc, err)
}

type pendingRecv struct {
	proc *core.Process
	data any
	src  int
}

// EagerThreshold is the message size (bytes) below which Send behaves
// eagerly (buffered, like MPI's eager protocol): the transfer starts
// immediately and Send returns when it completes, without waiting for
// the matching receive. Larger messages use rendezvous.
const EagerThreshold = 65536

// Rank is one MPI process.
type Rank struct {
	world *World
	rank  int
	proc  *core.Process
	host  *platform.Host
	cpu   *surf.HostHandle // the host's compute placement, resolved once
	err   error
}

// New creates an MPI world with one rank per host name (rank i runs on
// hosts[i]); duplicate host names are allowed (multiple ranks per
// host).
func New(pf *platform.Platform, cfg surf.Config, hosts []string) (*World, error) {
	if len(hosts) == 0 {
		return nil, errors.New("smpi: no hosts")
	}
	for _, h := range hosts {
		if pf.Host(h) == nil {
			return nil, fmt.Errorf("smpi: unknown host %q", h)
		}
	}
	eng := core.New()
	w := &World{
		eng:            eng,
		model:          surf.New(eng, pf, cfg),
		pf:             pf,
		hosts:          hosts,
		sendQ:          make(map[chanKey][]*pendingSend),
		recvQ:          make(map[chanKey][]*pendingRecv),
		benchCache:     make(map[string]float64),
		ReferencePower: 1e9,
	}
	return w, nil
}

// Run starts main on every rank and executes the simulation to
// completion. The first rank error (if any) is returned after the run.
func (w *World) Run(main func(*Rank) error) error {
	w.ranks = make([]*Rank, len(w.hosts))
	for i, hn := range w.hosts {
		r := &Rank{world: w, rank: i, host: w.pf.Host(hn), cpu: w.model.HostHandle(hn)}
		w.ranks[i] = r
		r.proc = w.eng.Spawn(fmt.Sprintf("rank%d", i), r.host, func(p *core.Process) {
			r.err = main(r)
		})
	}
	if err := w.eng.Run(); err != nil {
		return err
	}
	for _, r := range w.ranks {
		if r.err != nil {
			return fmt.Errorf("smpi: rank %d: %w", r.rank, r.err)
		}
	}
	return nil
}

// Engine exposes the simulation kernel.
func (w *World) Engine() *core.Engine { return w.eng }

// Model exposes the resource model.
func (w *World) Model() *surf.Model { return w.model }

// --- Rank API ---------------------------------------------------------------

// Rank returns the caller's rank (MPI_Comm_rank).
func (r *Rank) Rank() int { return r.rank }

// Size returns the number of ranks (MPI_Comm_size).
func (r *Rank) Size() int { return len(r.world.ranks) }

// Host returns the host this rank runs on.
func (r *Rank) Host() *platform.Host { return r.host }

// Wtime returns the current simulated time (MPI_Wtime).
func (r *Rank) Wtime() float64 { return r.world.eng.Now() }

// Compute runs `flops` of local work through the CPU model.
func (r *Rank) Compute(flops float64) error {
	_, err := r.execute(flops)
	return err
}

// execute charges flops of local work on the rank's host, blocks until
// it is done and returns the simulated seconds it took.
func (r *Rank) execute(flops float64) (float64, error) {
	w := r.world
	a, err := w.model.ExecuteHandle(r.cpu, flops, 1)
	if err != nil {
		return 0, err
	}
	start := w.eng.Now()
	werr := a.Wait(r.proc)
	a.Release() // the action never escapes this frame
	if werr != nil {
		return 0, werr
	}
	return w.eng.Now() - start, nil
}

// Send transmits data to a rank (MPI_Send, blocking until the matching
// receive completes — rendezvous semantics). bytes governs the
// simulated duration; data is delivered by reference.
func (r *Rank) Send(dst, tag int, data any, bytes float64) error {
	w := r.world
	if dst < 0 || dst >= len(w.ranks) {
		return fmt.Errorf("%w: dst %d", ErrRank, dst)
	}
	key := chanKey{src: r.rank, dst: dst, tag: tag}
	anyKey := chanKey{src: AnySource, dst: dst, tag: tag}

	// A receiver may be waiting on our exact source or on AnySource.
	var pr *pendingRecv
	if q := w.recvQ[key]; len(q) > 0 {
		pr, w.recvQ[key] = q[0], q[1:]
	} else if q := w.recvQ[anyKey]; len(q) > 0 {
		pr, w.recvQ[anyKey] = q[0], q[1:]
	}
	ps := &pendingSend{w: w, key: key, data: data, bytes: bytes, proc: r.proc}
	if pr != nil {
		if err := w.startTransfer(ps, pr, dst); err != nil {
			return err
		}
		return r.proc.BlockOn(core.SimcallSend)
	}
	if bytes <= EagerThreshold {
		// Eager protocol: ship the data now; the receiver will find it
		// (or attach to the in-flight transfer) when it posts.
		a, err := w.model.Communicate(w.hosts[r.rank], w.hosts[dst], bytes)
		if err != nil {
			return err
		}
		ps.action, ps.eager = a, true
		a.SetCompletion(ps)
	}
	// Queued only now: a send that failed to start must leave no record
	// for a later Recv to match and wake this rank through.
	w.sendQ[key] = append(w.sendQ[key], ps)
	return r.proc.BlockOn(core.SimcallSend)
}

// Recv receives data from a rank (MPI_Recv); src may be AnySource.
// It returns the payload and the actual source rank.
func (r *Rank) Recv(src, tag int) (any, int, error) {
	w := r.world
	if src != AnySource && (src < 0 || src >= len(w.ranks)) {
		return nil, 0, fmt.Errorf("%w: src %d", ErrRank, src)
	}
	var ps *pendingSend
	if src == AnySource {
		// Scan all senders to me with this tag, lowest rank first for
		// determinism.
		for s := 0; s < len(w.ranks); s++ {
			key := chanKey{src: s, dst: r.rank, tag: tag}
			if q := w.sendQ[key]; len(q) > 0 {
				ps, w.sendQ[key] = q[0], q[1:]
				break
			}
		}
	} else {
		key := chanKey{src: src, dst: r.rank, tag: tag}
		if q := w.sendQ[key]; len(q) > 0 {
			ps, w.sendQ[key] = q[0], q[1:]
		}
	}
	pr := &pendingRecv{proc: r.proc, src: src}
	switch {
	case ps != nil && ps.arrived:
		// Eager message already delivered locally: no waiting at all.
		return ps.data, ps.key.src, nil
	case ps != nil && ps.action != nil:
		// Eager transfer still in flight: attach and wait for it.
		ps.recv = pr
	case ps != nil:
		// Rendezvous: the sender was waiting for us; start the wire.
		if err := w.startTransfer(ps, pr, r.rank); err != nil {
			return nil, 0, err
		}
	default:
		key := chanKey{src: src, dst: r.rank, tag: tag}
		w.recvQ[key] = append(w.recvQ[key], pr)
	}
	if err := r.proc.BlockOn(core.SimcallRecv); err != nil {
		return nil, 0, err
	}
	return pr.data, pr.src, nil
}

// startTransfer launches the network action joining a matched
// send/recv pair; ps.ActionDone wakes both ends.
func (w *World) startTransfer(ps *pendingSend, pr *pendingRecv, dstRank int) error {
	srcHost := w.hosts[ps.key.src]
	dstHost := w.hosts[dstRank]
	a, err := w.model.Communicate(srcHost, dstHost, ps.bytes)
	if err != nil {
		w.eng.Wake(ps.proc, err)
		w.eng.Wake(pr.proc, err)
		return err
	}
	ps.action, ps.recv = a, pr
	if a.Done() {
		// Dead on arrival (a link of the route is down): deliver from a
		// timer, once both ends have blocked.
		w.eng.After(0, func() { ps.ActionDone(a, a.Err()) })
	} else {
		a.SetCompletion(ps)
	}
	return nil
}

// BenchOnce measures fn's real duration the first time `key` is seen,
// then replays the measured duration in virtual time on every
// subsequent call without running fn again —
// SMPI_BENCH_ONCE_RUN_ONCE_BEGIN/END. It returns the simulated seconds
// charged on this rank's host.
func (r *Rank) BenchOnce(key string, fn func()) (float64, error) {
	return r.bench(key, fn, false)
}

// BenchAlways is BenchOnce except fn really runs on every call (so its
// side effects happen), while the *charged* virtual duration is still
// the one measured on the first execution — SMPI_BENCH_ALWAYS with a
// cached measurement. Use it when the computation's results matter.
func (r *Rank) BenchAlways(key string, fn func()) (float64, error) {
	return r.bench(key, fn, true)
}

// bench charges key's cached measurement of fn, taking it first if this
// is the first call; always re-runs fn on the later ones too.
func (r *Rank) bench(key string, fn func(), always bool) (float64, error) {
	w := r.world
	dt, seen := w.benchCache[key]
	if !seen {
		t0 := time.Now() //lint:allow det-wallclock SMPI_BENCH seam: real compute is measured once, cached, and charged as simulated flops
		fn()
		dt = time.Since(t0).Seconds() //lint:allow det-wallclock SMPI_BENCH seam: real compute is measured once, cached, and charged as simulated flops
		w.benchCache[key] = dt
	} else if always {
		fn()
	}
	return r.execute(dt * w.ReferencePower)
}

// SetBench pre-loads a benchmark measurement (for deterministic tests
// and for replaying measurements captured on a reference machine).
func (w *World) SetBench(key string, seconds float64) {
	w.benchCache[key] = seconds
}
