// HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri, Wu,
// IEEE TPDS 2002) — as the second reference list scheduler next to
// min-min. Tasks are ranked by "upward rank" (mean execution cost plus
// the most expensive mean-cost path to an exit task) and placed, in
// decreasing rank order, on the host minimizing the earliest finish
// time under an insertion-based policy (a task may slide into an idle
// gap between two already-planned tasks).
//
// The repo's DAGs reify data movement as Comm task nodes, so the
// paper's edge weights map onto comm-task nodes: a comm node
// contributes its mean transfer estimate to ranks, and its
// placement-dependent cost (zero when producer and consumer land on
// the same host) to ready times. Cost hooks (HEFTOptions) let
// scheduling research — and the reference test, which replays the
// paper's canonical 10-task/3-processor example — substitute arbitrary
// cost tables for the default flops/power and latency+bytes/bandwidth
// estimates. Estimates only steer placement: execution always runs the
// real contention model.

package simdag

import (
	"math"
	"sort"
)

// HEFTOptions customizes HEFT's cost model. Nil fields get defaults.
type HEFTOptions struct {
	// Cost estimates a compute task's execution time on a host.
	// Default: flops / host power.
	Cost func(t *Task, host string) float64
	// CommCost estimates a comm task's transfer time from the
	// producer's host src to a candidate consumer host dst. Default:
	// route latency + bytes / bottleneck bandwidth; 0 when src == dst
	// (or src is unknown).
	CommCost func(c *Task, src, dst string) float64
	// MeanCommCost is the placement-independent transfer estimate used
	// in upward ranks (the paper's c̄). Default: CommCost averaged over
	// the distinct ordered host pairs of the pool.
	MeanCommCost func(c *Task) float64
}

// PlannedTask is one entry of HEFT's placement plan: the task, its
// chosen host, and the planned (estimated) execution interval.
type PlannedTask struct {
	Task          *Task
	Host          string
	Start, Finish float64
}

// HEFTStats reports the scheduling-analysis byproducts of a HEFT pass:
// the mean-cost critical path, the DAG's per-level parallelism profile,
// and the full placement plan in scheduling (rank) order.
type HEFTStats struct {
	// CriticalPath is the largest upward rank: the mean-cost length of
	// the DAG's critical path (the paper's lower-bound yardstick).
	CriticalPath float64
	// PlannedMakespan is the latest planned finish time — HEFT's own
	// estimate, not the simulated makespan.
	PlannedMakespan float64
	// Levels counts schedulable units (computes and ptasks) per depth
	// level: Levels[0] units have no unit ancestor, and so on.
	Levels []int
	// MaxParallelism and MeanParallelism summarize Levels: the widest
	// level, and units divided by the number of levels.
	MaxParallelism  int
	MeanParallelism float64
	// Plan lists the placed units in scheduling order.
	Plan []PlannedTask

	// sim and ranks (by creation index, NaN when unranked) back RankOf
	// without freezing a table into the public schema.
	sim   *Simulation
	ranks []float64
}

// RankOf returns a task's upward rank from the last ScheduleHEFTStats
// plan lookup table, or NaN when the task was not ranked.
func (st *HEFTStats) RankOf(t *Task) float64 {
	if st == nil || t == nil || t.sim != st.sim || int(t.seq) >= len(st.ranks) {
		return math.NaN()
	}
	return st.ranks[t.seq]
}

// nans returns n NaNs: "no value yet" in the by-creation-index tables.
func nans(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}

// ScheduleHEFT places unscheduled compute tasks (and, via the shared
// pre-pass, ptasks) with the HEFT heuristic, then wires comm tasks
// between the placements (placeComms).
func ScheduleHEFT(s *Simulation, hosts []string) error {
	_, err := ScheduleHEFTStats(s, hosts, nil)
	return err
}

// ScheduleHEFTStats is ScheduleHEFT returning the rank/plan/parallelism
// analysis alongside.
func ScheduleHEFTStats(s *Simulation, hosts []string, opts *HEFTOptions) (*HEFTStats, error) {
	ct, topo, err := s.beginSchedule(hosts)
	if err != nil {
		return nil, err
	}
	o := resolveHEFTOptions(ct, opts)

	// Upward ranks over the full graph, in reverse topological order:
	// rank(t) = weight(t) + max over successors rank(succ), with comm
	// nodes weighing their mean transfer estimate (the paper's
	// c̄(t,succ) folded into the reified edge node).
	ranks := nans(len(s.tasks))
	cp := 0.0
	for i := len(topo) - 1; i >= 0; i-- {
		t := topo[i]
		best := 0.0
		for it, succ := t.succs(); succ != nil; succ = it.next() {
			if r := ranks[succ.seq]; r > best { // a terminal successor is unranked: NaN
				best = r
			}
		}
		ranks[t.seq] = o.weight(t) + best
		if ranks[t.seq] > cp {
			cp = ranks[t.seq]
		}
	}

	// Units: everything HEFT plans an interval for — unplaced computes
	// (to be placed), plus already-placed computes and ptasks whose
	// spans must block their hosts. Decreasing rank order; near-ties
	// (an ulp apart from equivalent mean-cost paths) fall back to
	// creation order so the walk matches the paper's.
	var units []*Task
	for _, t := range topo {
		switch t.kind {
		case Compute:
			if t.state == NotScheduled || t.state == Schedulable {
				units = append(units, t)
			}
		case Parallel:
			if t.state == Schedulable {
				units = append(units, t)
			}
		}
	}
	sort.SliceStable(units, func(i, j int) bool {
		ri, rj := ranks[units[i].seq], ranks[units[j].seq]
		if d := ri - rj; d > rankTieEps || d < -rankTieEps {
			return ri > rj
		}
		return units[i].seq < units[j].seq
	})

	p := &heftPlanner{o: o, slots: make([][]heftSpan, ct.n), aft: nans(len(s.tasks))}
	st := &HEFTStats{CriticalPath: cp, sim: s, ranks: ranks}
	for _, t := range units {
		var pl PlannedTask
		if t.kind == Parallel {
			pl = p.placePtask(t)
		} else if t.state == Schedulable {
			// Pre-placed compute: keep the host, plan around it.
			pl = p.placeFixed(t)
		} else {
			var err error
			pl, err = p.placeCompute(t)
			if err != nil {
				return nil, err
			}
		}
		st.Plan = append(st.Plan, pl)
		if pl.Finish > st.PlannedMakespan {
			st.PlannedMakespan = pl.Finish
		}
	}
	if err := placeComms(s); err != nil {
		return nil, err
	}

	st.Levels = unitLevels(topo, len(s.tasks))
	for _, n := range st.Levels {
		if n > st.MaxParallelism {
			st.MaxParallelism = n
		}
		st.MeanParallelism += float64(n)
	}
	if len(st.Levels) > 0 {
		st.MeanParallelism /= float64(len(st.Levels))
	}
	return st, nil
}

// rankTieEps bounds the rank difference treated as a tie: equivalent
// mean-cost paths can differ by an ulp of float summation order.
const rankTieEps = 1e-9

// heftInput is one direct predecessor of the task being placed,
// resolved once ahead of the candidate scan: its finish, or — for a
// comm node — its producer's finish and host with that host's cost row.
type heftInput struct {
	fin  float64
	comm *Task // nil unless the predecessor is a comm node
	src  string
	row  []wire
}

// heftOpts is the resolved cost model (all hooks non-nil), addressed by
// the cost table's host ids. The default model is the hook that reads
// the table; a user hook is handed the names behind the ids.
type heftOpts struct {
	ct       *costTable
	cost     func(t *Task, h int) float64
	commCost func(in heftInput, h int) float64
	meanComm func(c *Task) float64
}

// weight is a task's rank contribution: mean execution cost for
// computes, mean transfer estimate for comms, the coupled estimate for
// placed ptasks, zero for seq points.
func (o *heftOpts) weight(t *Task) float64 {
	switch t.kind {
	case Compute:
		sum := 0.0
		for h := 0; h < o.ct.n; h++ {
			sum += o.cost(t, h)
		}
		return sum / float64(o.ct.n)
	case Comm:
		return o.meanComm(t)
	case Parallel:
		return o.ct.coupled(t)
	default:
		return 0
	}
}

func resolveHEFTOptions(ct *costTable, opts *HEFTOptions) *heftOpts {
	o := &heftOpts{ct: ct}
	if opts != nil && opts.Cost != nil {
		o.cost = func(t *Task, h int) float64 { return opts.Cost(t, ct.names[h]) }
	} else {
		o.cost = func(t *Task, h int) float64 { return t.amount / ct.power[h] }
	}
	if opts != nil && opts.CommCost != nil {
		o.commCost = func(in heftInput, h int) float64 { return opts.CommCost(in.comm, in.src, ct.names[h]) }
	} else {
		o.commCost = func(in heftInput, h int) float64 {
			if h < ct.n {
				return in.row[h].cost(in.comm.amount)
			}
			// A pre-placed unit's own off-pool host: no column for it.
			return ct.wire(in.src, ct.names[h]).cost(in.comm.amount)
		}
	}
	if opts != nil && opts.MeanCommCost != nil {
		o.meanComm = opts.MeanCommCost
	} else {
		// Summed term by term in row-major order, unroutable pairs
		// adding 0: factoring the sum (Σlat + bytes·Σ1/bw) changes the
		// last bit and flips rankTieEps ties.
		o.meanComm = func(c *Task) float64 {
			sum, n := 0.0, 0
			for i := 0; i < ct.n; i++ {
				in := heftInput{comm: c, src: ct.names[i], row: ct.row(ct.names[i])}
				for j := 0; j < ct.n; j++ {
					if i == j {
						continue
					}
					sum += o.commCost(in, j)
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		}
	}
	return o
}

// unitLevels computes the per-level parallelism profile: a unit
// (compute or ptask) sits one level below its deepest unit ancestor,
// with comm and seq nodes transparent.
func unitLevels(topo []*Task, ntasks int) []int {
	depth := make([]int, ntasks) // by creation index; terminal tasks stay at 0
	var levels []int
	for _, t := range topo {
		d := 0 // deepest unit-ancestor level + 1, carried through comm/seq
		for it, p := t.preds(); p != nil; p = it.next() {
			pd := depth[p.seq]
			switch p.kind {
			case Compute, Parallel:
				pd++
			}
			if pd > d {
				d = pd
			}
		}
		depth[t.seq] = d
		if t.kind == Compute || t.kind == Parallel {
			for len(levels) <= d {
				levels = append(levels, 0)
			}
			levels[d]++
		}
	}
	return levels
}

// heftSpan is one planned busy interval on a host.
type heftSpan struct{ start, end float64 }

// heftPlanner carries the placement state of one HEFT pass.
type heftPlanner struct {
	o     *heftOpts
	slots [][]heftSpan // by host id: planned intervals, sorted
	aft   []float64    // by creation index: planned (or estimated) finish, NaN until known
	ins   []heftInput  // the inputs of the task being placed (gather)
}

// slot returns the id — and so the interval list — of the host a unit
// is already placed on, in the pool or not.
func (p *heftPlanner) slot(name string) int {
	h := p.o.ct.intern(name)
	for len(p.slots) <= h {
		p.slots = append(p.slots, nil)
	}
	return h
}

// aftOf resolves a predecessor's finish estimate: terminal tasks
// report their actual finish, planned units their planned finish, seq
// points pass their deepest predecessor through, running tasks
// estimate start + weight, and comm nodes resolve to their producer
// plus the mean transfer estimate (gather resolves a direct comm
// predecessor host-exactly instead).
func (p *heftPlanner) aftOf(t *Task) float64 {
	if t.terminal() {
		return t.finish
	}
	if v := p.aft[t.seq]; v == v {
		return v
	}
	v := 0.0
	src := ""
	for it, pr := t.preds(); pr != nil; pr = it.next() {
		if a := p.aftOf(pr); a > v {
			v = a
		}
		if src == "" {
			src = placementHost(pr)
		}
	}
	switch t.kind {
	case Seq:
	case Comm:
		if src != "" {
			v += p.o.meanComm(t)
		}
	default:
		// Unplanned compute/ptask (e.g. running): preds + own weight.
		if t.state == Running {
			v = t.start
		}
		v += p.o.weight(t)
	}
	p.aft[t.seq] = v
	return v
}

// gather resolves the inputs of the task about to be placed: direct
// predecessors contribute their finish, comm predecessors their
// producer's finish, to which readyOn adds the host-exact transfer cost.
func (p *heftPlanner) gather(t *Task) {
	p.ins = p.ins[:0]
	for it, pr := t.preds(); pr != nil; pr = it.next() {
		var in heftInput
		if pr.kind != Comm {
			in.fin = p.aftOf(pr)
		} else {
			in.comm = pr
			for it2, pp := pr.preds(); pp != nil; pp = it2.next() {
				if a := p.aftOf(pp); a > in.fin {
					in.fin = a
				}
				if in.src == "" {
					in.src = placementHost(pp)
				}
			}
			in.row = p.o.ct.row(in.src)
		}
		p.ins = append(p.ins, in)
	}
}

// readyOn is the earliest the gathered inputs can be complete on
// candidate host h (the transfer is free when the producer sits on h).
func (p *heftPlanner) readyOn(h int) float64 {
	ready := 0.0
	for _, in := range p.ins {
		v := in.fin
		if in.comm != nil {
			v += p.o.commCost(in, h)
		}
		if v > ready {
			ready = v
		}
	}
	return ready
}

// fit finds the earliest start ≥ ready of a length-w interval on host
// h under the insertion policy: the first idle gap (including the open
// tail) that can hold it.
func (p *heftPlanner) fit(h int, ready, w float64) float64 {
	prevEnd := 0.0
	for _, sp := range p.slots[h] {
		start := prevEnd
		if ready > start {
			start = ready
		}
		if start+w <= sp.start {
			return start
		}
		prevEnd = sp.end
	}
	if ready > prevEnd {
		return ready
	}
	return prevEnd
}

// occupy inserts [start, start+w) into h's interval list, keeping it
// sorted.
func (p *heftPlanner) occupy(h int, start, w float64) {
	spans := p.slots[h]
	i := len(spans)
	for j, sp := range spans {
		if start < sp.start {
			i = j
			break
		}
	}
	spans = append(spans, heftSpan{})
	copy(spans[i+1:], spans[i:])
	spans[i] = heftSpan{start, start + w}
	p.slots[h] = spans
}

// placeCompute commits an unplaced compute to its min-EFT pool host
// (pool order, strict <).
func (p *heftPlanner) placeCompute(t *Task) (PlannedTask, error) {
	p.gather(t)
	bestEFT, bestStart := math.Inf(1), 0.0
	best, bestHost := 0, ""
	for h := 0; h < p.o.ct.n; h++ {
		ready := p.readyOn(h)
		w := p.o.cost(t, h)
		start := p.fit(h, ready, w)
		if eft := start + w; eft < bestEFT {
			bestEFT, bestStart, best, bestHost = eft, start, h, p.o.ct.names[h]
		}
	}
	if err := t.Schedule(bestHost); err != nil {
		return PlannedTask{}, err
	}
	p.occupy(best, bestStart, bestEFT-bestStart)
	p.aft[t.seq] = bestEFT
	return PlannedTask{Task: t, Host: bestHost, Start: bestStart, Finish: bestEFT}, nil
}

// placeFixed plans a compute whose host is already fixed (pre-placed
// before the HEFT call): same EFT machinery, one candidate.
func (p *heftPlanner) placeFixed(t *Task) PlannedTask {
	h := p.slot(t.host)
	p.gather(t)
	ready := p.readyOn(h)
	w := p.o.cost(t, h)
	start := p.fit(h, ready, w)
	p.occupy(h, start, w)
	p.aft[t.seq] = start + w
	return PlannedTask{Task: t, Host: t.host, Start: start, Finish: start + w}
}

// placePtask plans a (pre-placed) ptask: it must hold all its hosts
// simultaneously, so it starts at the latest of its ready time and
// every member host's planned tail (append-only — no insertion across
// k hosts), and occupies the interval on each.
func (p *heftPlanner) placePtask(t *Task) PlannedTask {
	p.gather(t)
	start := p.readyOn(p.slot(t.phosts[0]))
	for _, h := range t.phosts {
		if spans := p.slots[p.slot(h)]; len(spans) > 0 {
			if tail := spans[len(spans)-1].end; tail > start {
				start = tail
			}
		}
	}
	w := p.o.weight(t)
	for _, h := range t.phosts {
		p.occupy(p.slot(h), start, w)
	}
	p.aft[t.seq] = start + w
	return PlannedTask{Task: t, Host: t.phosts[0], Start: start, Finish: start + w}
}
