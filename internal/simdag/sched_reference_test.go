// Test-only reference for the list schedulers: min-min exactly as it
// was written (every pending task re-walked each round through a
// per-round map memo, route lookups by name — PR 4 / PR 10), its
// greedy ptask pre-pass, and HEFT's default cost closures by name
// (predecessors are walked through the public Dependencies, so the
// reference does not lean on the adjacency internals). The
// live schedulers are held to them over randomized layered DAGs:
// placement for placement, and Float64bits-equal plans, ranks and
// simulated finishes. The scan order (pending tasks in creation order ×
// hosts in pool order, strict <) and the term-by-term mean transfer
// cost are what the comparisons pin; a constant digest over every case
// pins the planners themselves.

package simdag

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/platform"
)

// refPlaceParallel is the greedy ptask pre-pass: ptasks in creation
// order, each on the k least-loaded pool hosts (ties by pool order).
func refPlaceParallel(s *Simulation, hosts []string) error {
	any := false
	for _, t := range s.tasks {
		if t.kind == Parallel && t.state == NotScheduled {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	type hostLoad struct {
		name  string
		power float64
		avail float64
	}
	pool := make([]hostLoad, 0, len(hosts))
	for _, h := range hosts {
		ph := s.pf.Host(h)
		if ph == nil {
			return fmt.Errorf("simdag: unknown host %q", h)
		}
		pool = append(pool, hostLoad{name: h, power: ph.Power})
	}
	chosen := make([]int, 0, 4)
	names := make([]string, 0, 4)
	for _, t := range s.tasks {
		if t.kind != Parallel || t.state != NotScheduled {
			continue
		}
		k := len(t.pflops)
		if k > len(pool) {
			return fmt.Errorf("simdag: ptask %q needs %d hosts, pool has %d", t.name, k, len(pool))
		}
		chosen = chosen[:0]
		for slot := 0; slot < k; slot++ {
			best := -1
			for i := range pool {
				taken := false
				for _, c := range chosen {
					if c == i {
						taken = true
						break
					}
				}
				if taken {
					continue
				}
				if best < 0 || pool[i].avail < pool[best].avail {
					best = i
				}
			}
			chosen = append(chosen, best)
		}
		names = names[:0]
		start, sumPower := 0.0, 0.0
		for _, c := range chosen {
			names = append(names, pool[c].name)
			if pool[c].avail > start {
				start = pool[c].avail
			}
			sumPower += pool[c].power
		}
		if err := t.ScheduleParallel(names); err != nil {
			return err
		}
		dur := 0.0
		if sumPower > 0 {
			dur = t.amount / sumPower
		}
		for _, c := range chosen {
			pool[c].avail = start + dur
		}
	}
	return nil
}

// refScheduleMinMin is min-min as first written: every round re-walks
// every pending compute, resolving predecessors through a recursive
// estimate memoized per round.
func refScheduleMinMin(s *Simulation, hosts []string) error {
	if len(hosts) == 0 {
		return fmt.Errorf("simdag: no hosts to schedule on")
	}
	if err := s.checkCycles(); err != nil {
		return err
	}
	if err := refPlaceParallel(s, hosts); err != nil {
		return err
	}
	power := make(map[string]float64, len(hosts))
	avail := make(map[string]float64, len(hosts))
	for _, h := range hosts {
		ph := s.pf.Host(h)
		if ph == nil {
			return fmt.Errorf("simdag: unknown host %q", h)
		}
		power[h] = ph.Power
	}

	estFin := make(map[*Task]float64)
	type memoEntry struct {
		v  float64
		ok bool
	}
	memo := make(map[*Task]memoEntry)
	var estOf func(t *Task) (float64, bool)
	estOf = func(t *Task) (float64, bool) {
		if t.terminal() {
			return t.finish, true
		}
		if v, ok := estFin[t]; ok {
			return v, true
		}
		if m, ok := memo[t]; ok {
			return m.v, m.ok
		}
		var v float64
		ok := true
		if (t.kind == Compute && t.host == "") || (t.kind == Parallel && len(t.phosts) == 0) {
			ok = false
		} else {
			for _, p := range t.Dependencies() {
				pv, pok := estOf(p)
				if !pok {
					ok = false
					break
				}
				if pv > v {
					v = pv
				}
			}
			if ok && t.kind == Compute {
				v += t.amount / s.pf.Host(t.host).Power
			}
			if ok && t.kind == Parallel {
				sum := 0.0
				for _, h := range t.phosts {
					sum += s.pf.Host(h).Power
				}
				if sum > 0 {
					v += t.amount / sum
				}
			}
		}
		memo[t] = memoEntry{v, ok}
		return v, ok
	}

	commCost := func(src, dst string, bytes float64) float64 {
		if src == dst || src == "" {
			return 0
		}
		route, err := s.pf.Route(src, dst)
		if err != nil || len(route.Links) == 0 {
			return 0
		}
		return route.Latency() + bytes/route.Bottleneck()
	}

	var pending []*Task
	for _, t := range s.tasks {
		if t.kind == Compute && t.state == NotScheduled {
			pending = append(pending, t)
		}
	}
	for len(pending) > 0 {
		bestECT := math.Inf(1)
		bestIdx, bestHost := -1, ""
		for idx, t := range pending {
			eligible := true
			base := 0.0
			for _, p := range t.Dependencies() {
				v, ok := estOf(p)
				if !ok {
					eligible = false
					break
				}
				if p.kind != Comm && v > base {
					base = v
				}
			}
			if !eligible {
				continue
			}
			for _, h := range hosts {
				arrive := base
				for _, p := range t.Dependencies() {
					if p.kind != Comm {
						continue
					}
					v, _ := estOf(p)
					v += commCost(commSrcHost(p), h, p.amount)
					if v > arrive {
						arrive = v
					}
				}
				start := arrive
				if a := avail[h]; a > start {
					start = a
				}
				ect := start + t.amount/power[h]
				if ect < bestECT {
					bestECT, bestIdx, bestHost = ect, idx, h
				}
			}
		}
		if bestIdx < 0 {
			return fmt.Errorf("simdag: %d compute tasks unschedulable (dangling dependencies)", len(pending))
		}
		t := pending[bestIdx]
		if err := t.Schedule(bestHost); err != nil {
			return err
		}
		estFin[t] = bestECT
		avail[bestHost] = bestECT
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
		memo = make(map[*Task]memoEntry)
	}
	return placeComms(s)
}

// refHEFTOptions spells out HEFT's default cost model as user hooks,
// by host name through platform.Route: flops/power, latency +
// bytes/bottleneck, and the mean of the latter summed term by term
// over the pool's ordered pairs.
func refHEFTOptions(s *Simulation, hosts []string) *HEFTOptions {
	commCost := func(c *Task, src, dst string) float64 {
		if src == dst || src == "" || dst == "" {
			return 0
		}
		route, err := s.pf.Route(src, dst)
		if err != nil || len(route.Links) == 0 {
			return 0
		}
		return route.Latency() + c.amount/route.Bottleneck()
	}
	return &HEFTOptions{
		Cost: func(t *Task, host string) float64 {
			return t.amount / s.pf.Host(host).Power
		},
		CommCost: commCost,
		MeanCommCost: func(c *Task) float64 {
			sum, n := 0.0, 0
			for i := range hosts {
				for j := range hosts {
					if i == j {
						continue
					}
					sum += commCost(c, hosts[i], hosts[j])
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		},
	}
}

// refCase is one randomized scheduling situation: a platform kind, a
// DAG seed and a variant.
type refCase struct {
	kind    string // "cluster" (homogeneous) or "waxman" (mixed powers, random links)
	seed    int64
	variant string
}

func (c refCase) String() string { return fmt.Sprintf("%s/seed%d/%s", c.kind, c.seed, c.variant) }

// refVariants are the situations every (platform, seed) is run in.
var refVariants = []string{
	"full",     // whole platform as the pool
	"offpool",  // pool shrunk by two hosts that hold pre-placed computes and half a pre-placed ptask
	"ties",     // equal flops and bytes everywhere: every round is a tie
	"midrun",   // re-placement halfway through the run over a shrunk pool, producers off-pool
	"dangling", // one compute of infinite work: the scan finds no finite ECT and counts what is left
	"orphan",   // a comm task with neither producer nor consumer: placeComms refuses
}

func refCases() []refCase {
	var out []refCase
	for _, kind := range []string{"cluster", "waxman"} {
		for seed := int64(1); seed <= 4; seed++ {
			for _, v := range refVariants {
				out = append(out, refCase{kind, seed, v})
			}
		}
	}
	return out
}

// platform builds the case's platform and returns it with every host
// name in pool order.
func (c refCase) platform(t *testing.T) (*platform.Platform, []string) {
	t.Helper()
	if c.kind == "cluster" {
		pf, hosts, err := platform.NewCluster(platform.ClusterConfig{
			Prefix: "c", Hosts: 12, Power: 1e9, Bandwidth: 1.25e8, Latency: 1e-4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pf, hosts
	}
	pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(10, c.seed))
	if err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for i, h := range pf.Hosts() {
		h.Power *= 1 + 0.5*float64(i%3)
		hosts = append(hosts, h.Name)
	}
	return pf, hosts
}

// build returns a fresh simulation of the case with its DAG, the
// scheduling pool, and (midrun only) the hosts to drop mid-run.
func (c refCase) build(t *testing.T) (s *Simulation, pool, drop []string) {
	t.Helper()
	pf, hosts := c.platform(t)
	s = New(pf, exactConfig())
	cfg := DefaultRandomConfig(6, 10, c.seed)
	cfg.PtaskProb, cfg.PtaskSlots = 0.1, 2
	if c.variant == "ties" {
		cfg.MinFlops, cfg.MinBytes = cfg.MaxFlops, cfg.MaxBytes
	}
	tasks, err := RandomLayered(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var computes []*Task
	for _, tk := range tasks {
		if tk.kind == Compute {
			computes = append(computes, tk)
		}
	}
	dep := func(a, b *Task) {
		t.Helper()
		if err := s.AddDependency(a, b); err != nil {
			t.Fatal(err)
		}
	}
	// Edges the generator never draws: stage-in data (a comm with no
	// producer), stage-out data (no consumer), and a seq join.
	n := len(computes)
	dep(s.NewCommTask("stage-in", 5e5), computes[1])
	dep(computes[n-2], s.NewCommTask("stage-out", 5e5))
	join := s.NewSeqTask("join")
	dep(computes[0], join)
	dep(computes[2], join)
	dep(join, computes[n-1])

	pool = hosts
	switch c.variant {
	case "offpool":
		pool = hosts[2:]
		for i, tk := range []*Task{computes[0], computes[3], computes[n/2]} {
			if err := tk.Schedule(hosts[i%2]); err != nil {
				t.Fatal(err)
			}
		}
		for _, tk := range tasks {
			if tk.kind == Parallel {
				if err := tk.ScheduleParallel([]string{hosts[0], hosts[3]}); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	case "midrun":
		drop = []string{hosts[1], hosts[4], hosts[5]}
	case "dangling":
		computes[n/3].amount = math.Inf(1)
	case "orphan":
		s.NewCommTask("orphan", 1e5)
	}
	return s, pool, drop
}

// without returns pool minus drop, order preserved.
func without(pool, drop []string) []string {
	var up []string
	for _, h := range pool {
		keep := true
		for _, d := range drop {
			keep = keep && h != d
		}
		if keep {
			up = append(up, h)
		}
	}
	return up
}

// replaceMidRun arms the reschedule pass's re-placement at virtual
// time `at` with the scheduler under test: unreleased computes and
// ptasks on the dropped hosts are pulled back, adjacent comms cleared,
// and sched re-places them on the rest of the pool. Nothing is failed,
// so tasks already running or done on a dropped host stay there — the
// off-pool producers of the pass. Any scheduling error lands in *serr.
func replaceMidRun(s *Simulation, at float64, pool, drop []string, sched func(*Simulation, []string) error, serr *error) {
	dropped := func(h string) bool {
		for _, d := range drop {
			if h == d {
				return true
			}
		}
		return false
	}
	s.eng.At(at, func() {
		for _, t := range s.tasks {
			if t.kind == Compute && t.state == Schedulable && dropped(t.host) {
				t.state, t.host, t.execH = NotScheduled, "", nil
			}
			if t.kind == Parallel && t.state == Schedulable {
				for _, h := range t.phosts {
					if dropped(h) {
						t.unschedParallel()
						break
					}
				}
			}
		}
		for _, t := range s.tasks {
			if t.kind == Comm && t.state == Schedulable && commNeighbourUnplaced(t) {
				t.state, t.src, t.dst, t.commH = NotScheduled, "", "", nil
			}
		}
		if *serr = sched(s, without(pool, drop)); *serr != nil {
			return
		}
		for _, t := range s.tasks {
			if t.state == Schedulable && t.waitingOn == 0 {
				s.enqueue(t)
			}
		}
	})
}

// snapshot renders every task's placement and timing, bit-exact.
func snapshot(s *Simulation) []string {
	out := make([]string, len(s.tasks))
	for i, t := range s.tasks {
		out[i] = fmt.Sprintf("%s %s %s host=%q src=%q dst=%q phosts=%v start=%x finish=%x",
			t.name, t.kind, t.state, t.host, t.src, t.dst, t.phosts,
			math.Float64bits(t.start), math.Float64bits(t.finish))
	}
	return out
}

// planLines renders a HEFT analysis bit-exactly: scalars, levels, the
// plan in order, and every task's rank.
func planLines(s *Simulation, st *HEFTStats) []string {
	if st == nil {
		return []string{"no stats"}
	}
	out := []string{fmt.Sprintf("cp=%x pm=%x levels=%v maxpar=%d meanpar=%x",
		math.Float64bits(st.CriticalPath), math.Float64bits(st.PlannedMakespan),
		st.Levels, st.MaxParallelism, math.Float64bits(st.MeanParallelism))}
	for _, pl := range st.Plan {
		out = append(out, fmt.Sprintf("plan %s on %s [%x,%x]", pl.Task.name, pl.Host,
			math.Float64bits(pl.Start), math.Float64bits(pl.Finish)))
	}
	for _, t := range s.tasks {
		out = append(out, fmt.Sprintf("rank %s %x", t.name, math.Float64bits(st.RankOf(t))))
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// diffLines fails the test at the first differing line.
func diffLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d\n  live: %s\n  ref:  %s", what, i, got[i], want[i])
		}
	}
}

// runCase schedules one case with sched (after the case's variant
// set-up), simulates it to the end, and returns everything observable:
// the scheduling error, the placements right after scheduling, and the
// tasks after the run. For midrun the first placement is over the whole
// pool and sched runs again halfway through over the shrunk one.
func runCase(t *testing.T, c refCase, sched func(*Simulation, []string) error) []string {
	t.Helper()
	s, pool, drop := c.build(t)
	err := sched(s, pool)
	out := append([]string{"sched: " + errString(err)}, snapshot(s)...)
	if err != nil {
		return out
	}
	var rerr error
	if c.variant == "midrun" {
		replaceMidRun(s, 1.2, pool, drop, sched, &rerr)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("%s: simulate: %v", c, err)
	}
	out = append(out, "resched: "+errString(rerr), fmt.Sprintf("done=%d failed=%d", s.nDone, s.nFailed))
	return append(out, snapshot(s)...)
}

// runHEFTCase is runCase for HEFT, with the analysis of the first pass
// (and of the mid-run pass) rendered in.
func runHEFTCase(t *testing.T, c refCase, opts func(*Simulation, []string) *HEFTOptions) []string {
	t.Helper()
	var out []string
	sched := func(s *Simulation, hosts []string) error {
		st, err := ScheduleHEFTStats(s, hosts, opts(s, hosts))
		out = append(out, planLines(s, st)...)
		return err
	}
	res := runCase(t, c, sched)
	return append(out, res...)
}

// TestSchedReferenceMinMin holds the live min-min to the reference on
// every case: same error, same placements (partial ones included when
// the pass fails), same simulated timings.
func TestSchedReferenceMinMin(t *testing.T) {
	for _, c := range refCases() {
		live := runCase(t, c, ScheduleMinMin)
		ref := runCase(t, c, refScheduleMinMin)
		diffLines(t, c.String(), live, ref)
		want := map[string]string{
			"dangling": "compute tasks unschedulable (dangling dependencies)",
			"orphan":   `comm task "orphan" has no placed compute neighbour`,
		}[c.variant]
		if want == "" {
			want = "sched: ok"
		}
		if !strings.Contains(live[0], want) {
			t.Fatalf("%s: %s, want %q", c, live[0], want)
		}
	}
}

// TestSchedReferenceHEFT holds HEFT's default cost model to the
// reference closures passed as user hooks: same placements, and
// Float64bits-equal plan, ranks, critical path and planned makespan.
func TestSchedReferenceHEFT(t *testing.T) {
	none := func(*Simulation, []string) *HEFTOptions { return nil }
	for _, c := range refCases() {
		live := runHEFTCase(t, c, none)
		ref := runHEFTCase(t, c, refHEFTOptions)
		diffLines(t, c.String(), live, ref)
	}
}

// schedDigest folds every case's observable outcome, for both
// schedulers, into one FNV-1a value.
func schedDigest(t *testing.T) uint64 {
	h := fnv.New64a()
	none := func(*Simulation, []string) *HEFTOptions { return nil }
	for _, c := range refCases() {
		for _, lines := range [][]string{runCase(t, c, ScheduleMinMin), runHEFTCase(t, c, none)} {
			fmt.Fprintln(h, c)
			for _, l := range lines {
				fmt.Fprintln(h, l)
			}
		}
	}
	return h.Sum64()
}

// TestSchedReferenceDigest pins the planners themselves (the HEFT
// comparison above shares the live planner between both sides): the
// digest was recorded from the schedulers as first written.
func TestSchedReferenceDigest(t *testing.T) {
	const want = uint64(0x87a9b1c5e4e98837)
	if got := schedDigest(t); got != want {
		t.Fatalf("scheduler digest %#x, want %#x", got, want)
	}
}
