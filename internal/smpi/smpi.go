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
// smpi is a client of msg: a World is an msg environment, a rank an msg
// process, a message an msg task through mailboxes on the destination
// rank's host — one per (source, destination, tag), plus one per
// (destination, tag) for AnySource receives. msg's rendezvous does the
// matching, its buffered put is MPI's eager protocol.
//
// Key invariant: rank-to-rank matching is deterministic — sends and
// receives pair in posting order per (source, tag) mailbox, so a legal
// MPI program produces the same virtual-time schedule on every run.
package smpi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
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
	env   *msg.Environment
	hosts []string
	ranks []*Rank
	main  func(*Rank) error // what every rank runs, set by Run

	// channels numbers the mailboxes, on first use.
	channels map[route]int

	benchCache map[string]float64

	// ReferencePower is the flop/s of the machine BenchOnce
	// measurements are taken on; a measured second becomes
	// ReferencePower flops, so slower simulated hosts take
	// proportionally longer (the paper's heterogeneity study).
	ReferencePower float64
}

// route names a mailbox on dst's host: the messages from src with tag,
// src being AnySource for the wildcard mailbox.
type route struct{ src, dst, tag int }

// message is one point-to-point message: the msg task carrying it, whose
// Data points back here, and what the receiver gets.
type message struct {
	task msg.Task
	src  int
	data any
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
	proc  *msg.Process
	err   error
}

// New creates an MPI world with one rank per host name (rank i runs on
// hosts[i]); duplicate host names are allowed (multiple ranks per
// host).
func New(pf *platform.Platform, cfg surf.Config, hosts []string) (*World, error) {
	if len(hosts) == 0 {
		return nil, errors.New("smpi: no hosts")
	}
	env := msg.NewEnvironment(pf, cfg)
	// A rank outlives its host's failure, and its panic is the run's.
	env.KillOnHostFailure = false
	env.Engine().ContainPanics = false
	w := &World{
		env:            env,
		hosts:          hosts,
		channels:       make(map[route]int),
		benchCache:     make(map[string]float64),
		ReferencePower: 1e9,
	}
	for i, h := range hosts {
		r := &Rank{world: w, rank: i}
		var err error
		if r.proc, err = env.NewProcess(fmt.Sprintf("rank%d", i), h, func(*msg.Process) error {
			r.err = w.main(r)
			return nil
		}); err != nil {
			return nil, fmt.Errorf("smpi: unknown host %q", h)
		}
		w.ranks = append(w.ranks, r)
	}
	return w, nil
}

// Run runs main on every rank, once per World, to the end of the
// simulation, and returns the first rank error (if any).
func (w *World) Run(main func(*Rank) error) error {
	w.main = main
	if err := w.env.Run(); err != nil {
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
func (w *World) Engine() *core.Engine { return w.env.Engine() }

// Model exposes the resource model.
func (w *World) Model() *surf.Model { return w.env.Model() }

// channel returns the mailbox number of a route.
func (w *World) channel(src, dst, tag int) int {
	k := route{src, dst, tag}
	ch, ok := w.channels[k]
	if !ok {
		ch = len(w.channels)
		w.channels[k] = ch
	}
	return ch
}

// queued reports whether dst's mailbox for (src, tag) holds puts
// (messages) or, with puts false, a waiting receiver.
func (w *World) queued(src, dst, tag int, puts bool) bool {
	n, p := w.env.Peek(w.hosts[dst], w.channel(src, dst, tag))
	return n > 0 && p == puts
}

// --- Rank API ---------------------------------------------------------------

// Rank returns the caller's rank (MPI_Comm_rank).
func (r *Rank) Rank() int { return r.rank }

// Size returns the number of ranks (MPI_Comm_size).
func (r *Rank) Size() int { return len(r.world.ranks) }

// Host returns the host this rank runs on.
func (r *Rank) Host() *platform.Host { return r.proc.Host() }

// Wtime returns the current simulated time (MPI_Wtime).
func (r *Rank) Wtime() float64 { return r.proc.Now() }

// Compute runs `flops` of local work through the CPU model.
func (r *Rank) Compute(flops float64) error {
	return r.proc.Execute(&msg.Task{Flops: flops})
}

// Send transmits data to a rank (MPI_Send). A message of at most
// EagerThreshold bytes is eager when no receive is posted for it: Send
// returns once the bytes arrived. Otherwise Send blocks until the
// matching receive completes (rendezvous). bytes governs the simulated
// duration; data is delivered by reference.
func (r *Rank) Send(dst, tag int, data any, bytes float64) error {
	w := r.world
	if dst < 0 || dst >= len(w.ranks) {
		return fmt.Errorf("%w: dst %d", ErrRank, dst)
	}
	// A receiver may be waiting on our exact source or on AnySource.
	src := r.rank
	if !w.queued(src, dst, tag, false) && w.queued(AnySource, dst, tag, false) {
		src = AnySource
	}
	m := &message{src: r.rank, data: data}
	m.task = msg.Task{Bytes: bytes, Data: m}
	host, ch := w.hosts[dst], w.channel(src, dst, tag)
	if bytes <= EagerThreshold {
		return r.proc.PutBuffered(&m.task, host, ch)
	}
	return r.proc.Put(&m.task, host, ch)
}

// Recv receives data from a rank (MPI_Recv); src may be AnySource, which
// takes from the lowest-ranked source with a message queued, or else
// waits for the first to send. It returns the payload and the actual
// source rank.
func (r *Rank) Recv(src, tag int) (any, int, error) {
	w := r.world
	if src != AnySource && (src < 0 || src >= len(w.ranks)) {
		return nil, 0, fmt.Errorf("%w: src %d", ErrRank, src)
	}
	for s := 0; src == AnySource && s < len(w.ranks); s++ {
		if w.queued(s, r.rank, tag, true) {
			src = s
		}
	}
	t, err := r.proc.Get(w.channel(src, r.rank, tag))
	if err != nil {
		return nil, 0, err
	}
	m := t.Data.(*message)
	return m.data, m.src, nil
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
	start := r.Wtime()
	if err := r.Compute(dt * w.ReferencePower); err != nil {
		return 0, err
	}
	return r.Wtime() - start, nil
}

// SetBench pre-loads a benchmark measurement (for deterministic tests
// and for replaying measurements captured on a reference machine).
func (w *World) SetBench(key string, seconds float64) {
	w.benchCache[key] = seconds
}
