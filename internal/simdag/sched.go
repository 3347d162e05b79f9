// Reference list schedulers. They only assign placements — execution
// stays with the simulation kernel — so they are interchangeable and a
// natural extension point for scheduling research (the SimDag use case
// in the paper). Both are deterministic: tasks are considered in
// creation order and hosts in the given order, with strict-improvement
// tie-breaks.

package simdag

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/platform"
)

// Scheduler returns the reference scheduler behind a campaign or
// command-line name — "minmin", "rr" or "heft" — or nil.
func Scheduler(name string) func(*Simulation, []string) error {
	switch name {
	case "minmin":
		return ScheduleMinMin
	case "rr":
		return ScheduleRoundRobin
	case "heft":
		return ScheduleHEFT
	}
	return nil
}

// wire is the placement-time cost of one directed host pair: route
// latency and bottleneck bandwidth. bw == 0 marks a free hop — same
// host, no producer, or no route; a real link's bandwidth is positive.
type wire struct{ lat, bw float64 }

func (w wire) cost(bytes float64) float64 {
	if w.bw == 0 {
		return 0
	}
	return w.lat + bytes/w.bw
}

// costTable is the cost model of one scheduling call, addressed by
// index instead of by host name: ids below n are the pool in pool
// order, later ids are off-pool hosts HEFT plans an interval on (a
// pre-placed unit's). Nothing in it outlives the call.
type costTable struct {
	pf    *platform.Platform
	n     int
	names []string          // id → host name
	power []float64         // id → host power
	id    map[string]int    // host name → id
	rows  map[string][]wire // source host → cost to each host id, built on first use
}

// internHosts drops repeated names from a pool (first occurrence kept,
// order preserved) and indexes what is left.
func internHosts(hosts []string) ([]string, map[string]int) {
	names, id := make([]string, 0, len(hosts)), make(map[string]int, len(hosts))
	for _, h := range hosts {
		if _, dup := id[h]; !dup {
			id[h] = len(names)
			names = append(names, h)
		}
	}
	return names, id
}

// beginSchedule is the front half every reference scheduler shares:
// reject an empty pool, a cyclic graph and unknown hosts, build the
// pool's cost table and place the ptasks, so that computes depending on
// one can estimate through it. It returns the live tasks in
// topological order along with the table.
func (s *Simulation) beginSchedule(hosts []string) (*costTable, []*Task, error) {
	if len(hosts) == 0 {
		return nil, nil, fmt.Errorf("simdag: no hosts to schedule on")
	}
	topo, err := s.topoOrder()
	if err != nil {
		return nil, nil, err
	}
	ct := &costTable{pf: s.pf, rows: make(map[string][]wire)}
	ct.names, ct.id = internHosts(hosts)
	ct.n = len(ct.names)
	for _, h := range ct.names {
		ph := s.pf.Host(h)
		if ph == nil {
			return nil, nil, fmt.Errorf("simdag: unknown host %q", h)
		}
		ct.power = append(ct.power, ph.Power)
	}
	return ct, topo, placeParallel(s, ct)
}

// intern returns a host's id, minting one past the pool for an
// off-pool host (HEFT plans an interval on a pre-placed unit's own).
func (ct *costTable) intern(name string) int {
	h, ok := ct.id[name]
	if !ok {
		h = len(ct.names)
		ct.id[name] = h
		ct.names = append(ct.names, name)
		ct.power = append(ct.power, ct.pf.Host(name).Power)
	}
	return h
}

// wire looks one pair up in the platform's routes.
func (ct *costTable) wire(src, dst string) wire {
	if src == dst || src == "" {
		return wire{}
	}
	route, err := ct.pf.Route(src, dst)
	if err != nil || len(route.Links) == 0 {
		return wire{}
	}
	return wire{route.Latency(), route.Bottleneck()}
}

// row returns the costs from a source host — in the pool or not, or ""
// when a comm has no producer — to each host id, pool hosts first. It
// grows with the ids HEFT mints for off-pool hosts.
func (ct *costTable) row(src string) []wire {
	row := ct.rows[src]
	if len(row) < len(ct.names) {
		row = append(make([]wire, 0, len(ct.names)), row...)
		for h := len(row); h < len(ct.names); h++ {
			row = append(row, ct.wire(src, ct.names[h]))
		}
		ct.rows[src] = row
	}
	return row
}

// coupled is the crude estimate of a placed ptask: total work over the
// pooled power of its host set.
func (ct *costTable) coupled(t *Task) float64 {
	sum := 0.0
	for _, h := range t.par.hosts {
		sum += ct.pf.Host(h).Power
	}
	if sum <= 0 {
		return 0
	}
	return t.amount / sum
}

// ScheduleRoundRobin assigns unplaced compute tasks to hosts
// round-robin in creation order, then wires comm tasks between their
// neighbours' placements (see placeComms). The cheap baseline — and
// the right choice when the DAG is huge and placement quality is not
// the question (benchmarks).
func ScheduleRoundRobin(s *Simulation, hosts []string) error {
	ct, _, err := s.beginSchedule(hosts)
	if err != nil {
		return err
	}
	i := 0
	for _, t := range s.tasks {
		if t.kind != Compute || t.state != NotScheduled {
			continue
		}
		if err := t.Schedule(ct.names[i%ct.n]); err != nil {
			return err
		}
		i++
	}
	return placeComms(s)
}

// minMin is the state of one ScheduleMinMin call. A task's estimated
// finish is final once every predecessor's is — committed estimates
// never change and terminal finishes are fixed during the call — so
// estimates are resolved once, Kahn-style: t.indeg counts the
// predecessors still without one, and -1 marks a task that has its own.
type minMin struct {
	ct    *costTable
	est   []float64   // by creation index: estimated finish, once resolved
	avail []float64   // by pool index: when the host is next free
	ready []readyTask // unplaced computes with every input resolved, in creation order
	spare [][]float64 // rows of committed tasks, reused
}

// readyTask caches what does not change while a task waits in the
// ready set: row[:n] is when its inputs can have arrived on each pool
// host, row[n:] its execution time there. host and ect are its
// lexicographic best (ECT, pool index) at its last scan; host is -1
// until a scan finds a finite ECT.
type readyTask struct {
	t    *Task
	row  []float64
	ect  float64
	host int
}

// ScheduleMinMin is the classic min-min list-scheduling heuristic over
// a heterogeneous platform: repeatedly pick, among the compute tasks
// whose predecessors are all resolved, the (task, host) pair with the
// globally minimal estimated completion time, and commit it. Transfer
// costs are estimated from the platform routes (latency + bytes over
// the bottleneck bandwidth) for comm tasks directly feeding the
// candidate; the estimates only steer placement — the simulation
// itself runs the real contention model.
func ScheduleMinMin(s *Simulation, hosts []string) error {
	ct, topo, err := s.beginSchedule(hosts)
	if err != nil {
		return err
	}
	m := &minMin{ct: ct, est: make([]float64, len(s.tasks)), avail: make([]float64, ct.n)}
	pending := 0
	for _, t := range topo { // predecessors come first: count, and settle what is already resolvable
		t.indeg = 0
		for it, p := t.preds(); p != nil; p = it.next() {
			if p.indeg >= 0 { // terminal tasks sit at -1 too (topoOrder)
				t.indeg++
			}
		}
		if t.kind == Compute && t.state == NotScheduled {
			pending++
		}
		if t.indeg == 0 {
			m.settle(t)
		}
	}
	var work []*Task
	for taken := -1; pending > 0; pending-- {
		// The lexicographic (ECT, creation index, pool index) minimum:
		// each ready task's best in creation order, strict <. A commit
		// only raises avail[taken], so a task whose best lies elsewhere
		// keeps it: only new tasks and those whose best was taken are
		// rescanned.
		best, bestECT := -1, math.Inf(1)
		for i := range m.ready {
			r := &m.ready[i]
			if r.host < 0 || r.host == taken {
				m.rescan(r)
			}
			if r.ect < bestECT {
				best, bestECT = i, r.ect
			}
		}
		if best < 0 {
			return fmt.Errorf("simdag: %d compute tasks unschedulable (dangling dependencies)", pending)
		}
		r := m.ready[best]
		bestHost := r.host
		if err := r.t.Schedule(ct.names[bestHost]); err != nil {
			return err
		}
		m.ready = append(m.ready[:best], m.ready[best+1:]...)
		m.spare = append(m.spare, r.row)
		m.est[r.t.seq], r.t.indeg, m.avail[bestHost], taken = bestECT, -1, bestECT, bestHost
		// The commitment may resolve tasks downstream, transitively.
		for work = append(work, r.t); len(work) > 0; {
			t := work[len(work)-1]
			work = work[:len(work)-1]
			for it, succ := t.succs(); succ != nil; succ = it.next() {
				if succ.indeg > 0 {
					if succ.indeg--; succ.indeg == 0 && m.settle(succ) {
						work = append(work, succ)
					}
				}
			}
		}
	}
	return placeComms(s)
}

// rescan finds a ready task's best host: pool order, strict <.
func (m *minMin) rescan(r *readyTask) {
	arrive, exec := r.row[:m.ct.n], r.row[m.ct.n:]
	r.host, r.ect = -1, math.Inf(1)
	for h, a := range m.avail {
		start := arrive[h]
		if a > start {
			start = a
		}
		if ect := start + exec[h]; ect < r.ect {
			r.host, r.ect = h, ect
		}
	}
}

// fin is a resolved predecessor's finish: actual once terminal,
// estimated otherwise.
func (m *minMin) fin(p *Task) float64 {
	if p.terminal() {
		return p.finish
	}
	return m.est[p.seq]
}

// settle takes a task whose predecessors are all resolved. An unplaced
// compute joins the ready set and stays unresolved until committed.
// Anything else gets its estimate — the latest predecessor, plus its
// own duration for a compute placed outside this call (pre-scheduled,
// or already running after a watch point) and for a ptask; a comm's
// wire time is added per candidate host in enter, where the
// destination is known — and settle reports true.
func (m *minMin) settle(t *Task) bool {
	if t.kind == Compute && t.state == NotScheduled {
		m.enter(t)
		return false
	}
	v := 0.0
	for it, p := t.preds(); p != nil; p = it.next() {
		if pv := m.fin(p); pv > v {
			v = pv
		}
	}
	switch t.kind {
	case Compute:
		v += t.amount / m.ct.pf.Host(t.host).Power
	case Parallel:
		v += m.ct.coupled(t)
	}
	m.est[t.seq], t.indeg = v, -1
	return true
}

// enter adds a compute to the ready set with its per-host rows: inputs
// arrive no earlier than the latest direct predecessor, and each comm
// predecessor adds the wire hop from its producer to the candidate.
func (m *minMin) enter(t *Task) {
	n := m.ct.n
	var row []float64
	if k := len(m.spare); k > 0 {
		row, m.spare = m.spare[k-1], m.spare[:k-1]
	} else {
		row = make([]float64, 2*n)
	}
	arrive, exec := row[:n], row[n:]
	for h := range arrive {
		arrive[h], exec[h] = 0, t.amount/m.ct.power[h]
	}
	base := 0.0
	for it, p := t.preds(); p != nil; p = it.next() {
		v := m.fin(p)
		if p.kind != Comm {
			if v > base {
				base = v
			}
			continue
		}
		w := m.ct.row(commSrcHost(p))
		for h := range arrive {
			if a := v + w[h].cost(p.amount); a > arrive[h] {
				arrive[h] = a
			}
		}
	}
	for h := range arrive {
		if base > arrive[h] {
			arrive[h] = base
		}
	}
	i := sort.Search(len(m.ready), func(i int) bool { return m.ready[i].t.seq > t.seq })
	m.ready = append(m.ready, readyTask{})
	copy(m.ready[i+1:], m.ready[i:])
	m.ready[i] = readyTask{t: t, row: row, host: -1}
}

// commSrcHost returns the placement of a comm task's producing compute
// (or ptask — by convention its first host) predecessor ("" when there
// is none yet).
func commSrcHost(c *Task) string {
	for it, p := c.preds(); p != nil; p = it.next() {
		if h := placementHost(p); h != "" {
			return h
		}
	}
	return ""
}

// placementHost reduces a task's placement to one representative host:
// a compute's host, a ptask's first host, "" otherwise.
func placementHost(t *Task) string {
	if ph := t.ParallelHosts(); len(ph) > 0 {
		return ph[0]
	}
	return t.Host()
}

// placeComms assigns every unplaced comm task's endpoints from its
// placed compute neighbours: source from the producing predecessor,
// destination from the consuming successor. A missing producer
// (stage-in data) collapses onto the destination; a missing consumer
// onto the source — both model a free local touch.
func placeComms(s *Simulation) error {
	for _, t := range s.tasks {
		if t.kind != Comm || t.state != NotScheduled {
			continue
		}
		src := commSrcHost(t)
		dst := ""
		for it, p := t.succs(); p != nil; p = it.next() {
			if h := placementHost(p); h != "" {
				dst = h
				break
			}
		}
		if src == "" {
			src = dst
		}
		if dst == "" {
			dst = src
		}
		if src == "" {
			return fmt.Errorf("simdag: comm task %q has no placed compute neighbour", t.name)
		}
		if err := t.ScheduleComm(src, dst); err != nil {
			return err
		}
	}
	return nil
}
