// Package packet implements an event-driven packet-level network
// simulator with TCP Reno congestion control, standing in for the NS2
// and GTNets simulators used as ground truth in the paper's validation
// experiment ("For short-lived flows, one can use more accurate, but
// more expensive, packet-level simulation").
//
// The simulator models store-and-forward links with drop-tail FIFO
// queues (serialization then propagation delay) and TCP senders with
// slow start, congestion avoidance, fast retransmit/fast recovery and
// Jacobson RTO estimation. Two parameterisations are provided: VariantNS2
// (classic Reno) and VariantGTNets (slightly more aggressive window
// growth), mirroring the two comparators of the paper.
//
// It consumes the same hop-level routes as the fluid model (package
// surf), so a flow crosses exactly the same queues in both simulators.
package packet

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"repro/internal/platform"
)

// Variant selects a comparator personality.
type Variant int

// Simulator personalities.
const (
	// VariantNS2 is classic TCP Reno with NS2-like defaults.
	VariantNS2 Variant = iota
	// VariantGTNets behaves like GTNetS' default TCP: a slightly more
	// aggressive congestion-avoidance growth and larger initial window.
	VariantGTNets
)

func (v Variant) String() string {
	if v == VariantGTNets {
		return "gtnets"
	}
	return "ns2"
}

// Config tunes the packet simulation.
type Config struct {
	Variant Variant

	MSS        int     // TCP payload bytes per data packet
	HeaderSize int     // TCP/IP header bytes added to every data packet
	AckSize    int     // bytes of a pure ACK
	QueueLimit int     // packets per link queue (drop-tail)
	InitCwnd   float64 // initial congestion window (packets)
	MaxCwnd    float64 // receiver window clamp (packets)
	SSThresh   float64 // initial slow-start threshold (packets)
	RTOMin     float64 // minimum retransmission timeout (seconds)

	// CAIncrement is the congestion-avoidance additive increase per
	// RTT, in packets (1 for Reno; GTNetS default behaves closer to
	// 1.5 in our calibration).
	CAIncrement float64
}

// DefaultConfig returns the configuration for a variant.
func DefaultConfig(v Variant) Config {
	cfg := Config{
		Variant:     v,
		MSS:         1460,
		HeaderSize:  40,
		AckSize:     40,
		QueueLimit:  100,
		InitCwnd:    2,
		MaxCwnd:     1000,
		SSThresh:    64,
		RTOMin:      0.2,
		CAIncrement: 1,
	}
	if v == VariantGTNets {
		cfg.InitCwnd = 4
		cfg.CAIncrement = 1.5
	}
	return cfg
}

// dlink is one direction of a physical link: a rate-limited FIFO queue.
type dlink struct {
	name  string
	rate  float64 // bytes/s
	delay float64 // propagation seconds
	limit int

	queue []*pkt
	busy  bool

	// Counters.
	sent    int
	dropped int
}

// pkt is a packet in flight.
type pkt struct {
	flow  *Flow
	seq   int // data sequence (packet number) or ack number
	size  int // bytes on the wire
	isAck bool
	path  []*dlink
	hop   int
	sent  float64 // time the data packet left the sender (for RTT)
}

// Flow is one TCP transfer.
type Flow struct {
	ID       int
	Src, Dst string
	Bytes    float64

	net     *Network
	fwd     []*dlink // data path
	rev     []*dlink // ack path
	nPkts   int
	started float64

	// Sender state.
	cwnd     float64
	ssthresh float64
	sndNxt   int
	sndUna   int
	dupAcks  int
	recover  int  // fast-recovery high-water mark
	inFR     bool // in fast recovery

	// RTT estimation (Jacobson).
	srtt, rttvar float64
	rtoGen       int // invalidates stale RTO events

	// Receiver state.
	rcvNxt   int
	received map[int]bool // out-of-order buffer

	done     bool
	finish   float64
	timeouts int
	rexmits  int
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// FinishTime returns the completion time (valid once Done).
func (f *Flow) FinishTime() float64 { return f.finish }

// Throughput returns achieved goodput in bytes/s (valid once Done).
func (f *Flow) Throughput() float64 {
	if !f.done || f.finish <= f.started {
		return 0
	}
	return f.Bytes / (f.finish - f.started)
}

// Retransmits returns the number of retransmitted packets.
func (f *Flow) Retransmits() int { return f.rexmits }

// Timeouts returns the number of RTO events.
func (f *Flow) Timeouts() int { return f.timeouts }

// event is a scheduled simulator step.
type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Network is a packet-level simulation instance.
type Network struct {
	cfg    Config
	pf     *platform.Platform
	dlinks map[dlinkKey]*dlink
	flows  []*Flow
	events eventHeap
	now    float64
	seq    int64
	active int
}

// ErrNoHopRoute reports that the platform lacks hop-level routes.
var ErrNoHopRoute = errors.New("packet: platform has no hop-level route (build it with Connect/ComputeRoutes)")

// New builds a packet network over a platform's connection graph. The
// same platform object can drive the fluid model, guaranteeing both
// simulators route flows identically.
func New(pf *platform.Platform, cfg Config) *Network {
	if cfg.MSS <= 0 {
		cfg = DefaultConfig(cfg.Variant)
	}
	return &Network{
		cfg:    cfg,
		pf:     pf,
		dlinks: make(map[dlinkKey]*dlink),
	}
}

// Now returns the current simulated time.
func (n *Network) Now() float64 { return n.now }

// Config returns the simulation configuration.
func (n *Network) Config() Config { return n.cfg }

func (n *Network) at(t float64, fn func()) {
	if t < n.now {
		t = n.now
	}
	n.seq++
	heap.Push(&n.events, &event{at: t, seq: n.seq, fn: fn})
}

// dlinkKey is one direction of a link: the link and the node it heads to.
type dlinkKey struct {
	link *platform.Link
	head string
}

// dlinkFor returns (creating on demand) the directed link for crossing
// `hop` — flows crossing the same physical link in the same direction
// share the queue.
func (n *Network) dlinkFor(hop platform.Hop) *dlink {
	key := dlinkKey{hop.Link, hop.B}
	dl := n.dlinks[key]
	if dl == nil {
		dl = &dlink{
			name:  hop.Link.Name + "->" + hop.B,
			rate:  hop.Link.Bandwidth,
			delay: hop.Link.Latency,
			limit: n.cfg.QueueLimit,
		}
		n.dlinks[key] = dl
	}
	return dl
}

// AddFlow registers a TCP transfer of `bytes` bytes from src to dst,
// starting at time `start`. Returns an error if the platform has no
// hop-level route between the hosts.
func (n *Network) AddFlow(src, dst string, bytes float64, start float64) (*Flow, error) {
	hops, err := n.pf.HopRoute(src, dst)
	if err != nil {
		return nil, err
	}
	if len(hops) == 0 {
		return nil, fmt.Errorf("packet: %s -> %s is intra-host", src, dst)
	}
	f := &Flow{
		ID:       len(n.flows),
		Src:      src,
		Dst:      dst,
		Bytes:    bytes,
		net:      n,
		started:  start,
		cwnd:     n.cfg.InitCwnd,
		ssthresh: n.cfg.SSThresh,
		received: make(map[int]bool),
	}
	for _, h := range hops {
		f.fwd = append(f.fwd, n.dlinkFor(h))
	}
	rev, err := n.pf.HopRoute(dst, src)
	if err != nil {
		return nil, err
	}
	for _, h := range rev {
		f.rev = append(f.rev, n.dlinkFor(h))
	}
	f.nPkts = int(math.Ceil(bytes / float64(n.cfg.MSS)))
	if f.nPkts == 0 {
		f.nPkts = 1
	}
	n.flows = append(n.flows, f)
	n.active++
	n.at(start, func() { f.trySend() })
	return f, nil
}

// Flows returns the registered flows.
func (n *Network) Flows() []*Flow { return n.flows }

// Run executes the simulation until all flows complete or until
// maxTime (<= 0: no limit). It returns the number of completed flows.
func (n *Network) Run(maxTime float64) int {
	for len(n.events) > 0 && n.active > 0 {
		ev := heap.Pop(&n.events).(*event)
		if maxTime > 0 && ev.at > maxTime {
			n.now = maxTime
			break
		}
		n.now = ev.at
		ev.fn()
	}
	completed := 0
	for _, f := range n.flows {
		if f.done {
			completed++
		}
	}
	return completed
}

// --- link machinery -------------------------------------------------------

// enqueue places a packet on a directed link, dropping it if the queue
// is full (drop-tail).
func (n *Network) enqueue(dl *dlink, p *pkt) {
	if len(dl.queue) >= dl.limit {
		dl.dropped++
		return // lost; recovery via dupacks or RTO
	}
	dl.queue = append(dl.queue, p)
	if !dl.busy {
		n.transmitNext(dl)
	}
}

// transmitNext starts serializing the head-of-line packet.
func (n *Network) transmitNext(dl *dlink) {
	if len(dl.queue) == 0 {
		dl.busy = false
		return
	}
	dl.busy = true
	p := dl.queue[0]
	dl.queue = dl.queue[1:]
	txTime := float64(p.size) / dl.rate
	n.at(n.now+txTime, func() {
		dl.sent++
		// Serialization done: the wire is free for the next packet,
		// and this one propagates.
		arrival := n.now + dl.delay
		n.at(arrival, func() { n.arrive(p) })
		n.transmitNext(dl)
	})
}

// arrive delivers a packet at the next hop or its destination.
func (n *Network) arrive(p *pkt) {
	p.hop++
	if p.hop < len(p.path) {
		n.enqueue(p.path[p.hop], p)
		return
	}
	if p.isAck {
		p.flow.onAck(p)
	} else {
		p.flow.onData(p)
	}
}

// --- TCP sender -----------------------------------------------------------

// window returns the usable send window in packets.
func (f *Flow) window() int {
	w := math.Min(f.cwnd, f.net.cfg.MaxCwnd)
	if w < 1 {
		w = 1
	}
	return int(w)
}

// trySend emits new data packets while the window allows. The pipe is
// estimated as sndNxt - sndUna (retransmissions do not inflate it).
func (f *Flow) trySend() {
	if f.done {
		return
	}
	for f.sndNxt-f.sndUna < f.window() && f.sndNxt < f.nPkts {
		f.emit(f.sndNxt, false)
		f.sndNxt++
	}
}

// emit sends one data packet (seq) onto the forward path; rexmit marks
// retransmissions (counted but otherwise identical).
func (f *Flow) emit(seq int, rexmit bool) {
	n := f.net
	size := n.cfg.MSS + n.cfg.HeaderSize
	if seq == f.nPkts-1 {
		// Last packet may be partial.
		rem := f.Bytes - float64(n.cfg.MSS)*float64(f.nPkts-1)
		if rem > 0 && rem < float64(n.cfg.MSS) {
			size = int(rem) + n.cfg.HeaderSize
		}
	}
	p := &pkt{flow: f, seq: seq, size: size, path: f.fwd, hop: 0, sent: n.now}
	if rexmit {
		f.rexmits++
	}
	n.enqueue(f.fwd[0], p)
	f.armRTO()
}

// rto returns the current retransmission timeout.
func (f *Flow) rto() float64 {
	if f.srtt == 0 {
		return 3 * math.Max(f.net.cfg.RTOMin, 1) // conservative initial RTO
	}
	rto := f.srtt + 4*f.rttvar
	if rto < f.net.cfg.RTOMin {
		rto = f.net.cfg.RTOMin
	}
	return rto
}

// armRTO (re)arms the retransmission timer.
func (f *Flow) armRTO() {
	f.rtoGen++
	gen := f.rtoGen
	f.net.at(f.net.now+f.rto(), func() { f.onRTO(gen) })
}

// onRTO fires when the retransmission timer expires.
func (f *Flow) onRTO(gen int) {
	if f.done || gen != f.rtoGen {
		return // stale timer
	}
	f.timeouts++
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = 1
	f.dupAcks = 0
	f.inFR = false
	f.sndNxt = f.sndUna // everything outstanding is presumed lost
	f.emit(f.sndNxt, true)
	f.sndNxt++
}

// onAck processes a cumulative ACK at the sender.
func (f *Flow) onAck(p *pkt) {
	if f.done {
		return
	}
	n := f.net
	ackNo := p.seq // next expected packet at receiver

	// RTT sample from the echo of the send timestamp.
	sample := n.now - p.sent
	if sample > 0 {
		if f.srtt == 0 {
			f.srtt = sample
			f.rttvar = sample / 2
		} else {
			const alpha, beta = 0.125, 0.25
			f.rttvar = (1-beta)*f.rttvar + beta*math.Abs(f.srtt-sample)
			f.srtt = (1-alpha)*f.srtt + alpha*sample
		}
	}

	if ackNo > f.sndUna {
		acked := ackNo - f.sndUna
		f.sndUna = ackNo
		if f.sndNxt < f.sndUna {
			f.sndNxt = f.sndUna
		}
		f.dupAcks = 0
		if f.inFR {
			if ackNo > f.recover {
				// Full recovery.
				f.inFR = false
				f.cwnd = f.ssthresh
			} else {
				// Partial ACK: retransmit the next hole (NewReno).
				f.emit(f.sndUna, true)
				f.cwnd = math.Max(f.cwnd-float64(acked)+1, 1)
			}
		} else if f.cwnd < f.ssthresh {
			f.cwnd += float64(acked) // slow start
		} else {
			f.cwnd += n.cfg.CAIncrement * float64(acked) / f.cwnd
		}
		if f.sndUna >= f.nPkts {
			f.complete()
			return
		}
		f.armRTO()
	} else {
		// Duplicate ACK.
		f.dupAcks++
		if f.dupAcks == 3 && !f.inFR {
			// Fast retransmit + fast recovery.
			f.ssthresh = math.Max(f.cwnd/2, 2)
			f.cwnd = f.ssthresh + 3
			f.inFR = true
			f.recover = f.sndNxt
			f.emit(f.sndUna, true)
		} else if f.inFR {
			f.cwnd++ // window inflation
		}
	}
	f.trySend()
}

// complete marks the flow finished.
func (f *Flow) complete() {
	f.done = true
	f.finish = f.net.now
	f.net.active--
	f.rtoGen++ // kill pending RTO
}

// --- TCP receiver -----------------------------------------------------------

// onData processes a data packet at the receiver and sends an ACK.
func (f *Flow) onData(p *pkt) {
	n := f.net
	if p.seq >= f.rcvNxt {
		f.received[p.seq] = true
	}
	for f.received[f.rcvNxt] {
		delete(f.received, f.rcvNxt)
		f.rcvNxt++
	}
	// Cumulative ACK carrying the data packet's timestamp (timestamp
	// option), so the sender gets an RTT sample per ACK.
	ack := &pkt{
		flow:  f,
		seq:   f.rcvNxt,
		size:  n.cfg.AckSize,
		isAck: true,
		path:  f.rev,
		hop:   0,
		sent:  p.sent,
	}
	n.enqueue(f.rev[0], ack)
}

// --- diagnostics ------------------------------------------------------------

// LinkStats describes per-directed-link counters after a run.
type LinkStats struct {
	Name    string
	Sent    int
	Dropped int
}

// Stats returns per-directed-link counters sorted by name.
func (n *Network) Stats() []LinkStats {
	out := make([]LinkStats, 0, len(n.dlinks))
	for _, dl := range n.dlinks {
		out = append(out, LinkStats{Name: dl.name, Sent: dl.sent, Dropped: dl.dropped})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
