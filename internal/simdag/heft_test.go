// HEFT pinned against the canonical example of the source paper
// (Topcuoglu, Hariri, Wu, "Performance-Effective and Low-Complexity
// Task Scheduling for Heterogeneous Computing", IEEE TPDS 13(3), 2002):
// the 10-task/3-processor DAG of Figure 2, with the published upward
// ranks and the Figure 3(a) schedule as golden values. The cost-table
// hooks (HEFTOptions) replay the paper's arbitrary per-task-per-
// processor costs, which a flops/power model cannot express.
package simdag

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	"repro/internal/platform"
	"repro/internal/pool/pooltest"
	"repro/internal/surf"
)

// topcuogluW is the paper's computation-cost table: row = task n1..n10,
// column = processor P1..P3.
var topcuogluW = [10][3]float64{
	{14, 16, 9},  // n1
	{13, 19, 18}, // n2
	{11, 13, 19}, // n3
	{13, 8, 17},  // n4
	{12, 13, 10}, // n5
	{13, 16, 9},  // n6
	{7, 15, 11},  // n7
	{5, 11, 14},  // n8
	{18, 12, 20}, // n9
	{21, 7, 16},  // n10
}

// topcuogluEdges is the paper's DAG: (from, to, average comm cost).
var topcuogluEdges = []struct {
	from, to int // 1-based task numbers
	cost     float64
}{
	{1, 2, 18}, {1, 3, 12}, {1, 4, 9}, {1, 5, 11}, {1, 6, 14},
	{2, 8, 19}, {2, 9, 16},
	{3, 7, 23},
	{4, 8, 27}, {4, 9, 23},
	{5, 9, 13},
	{6, 8, 15},
	{7, 10, 17}, {8, 10, 11}, {9, 10, 13},
}

// topcuogluRanks is the paper's Table of upward ranks (Figure 2).
var topcuogluRanks = [10]float64{108, 77, 80, 80, 69, 63.333, 42.667, 35.667, 44.333, 14.667}

// topcuogluPlan is the Figure 3(a) HEFT schedule: task → processor and
// planned interval, in scheduling (decreasing-rank) order.
var topcuogluPlan = []struct {
	task          int
	host          string
	start, finish float64
}{
	{1, "P3", 0, 9},
	{3, "P3", 9, 28},
	{4, "P2", 18, 26},
	{2, "P1", 27, 40},
	{5, "P3", 28, 38},
	{6, "P2", 26, 42},
	{9, "P2", 56, 68},
	{7, "P3", 38, 49},
	{8, "P1", 57, 62},
	{10, "P2", 73, 80},
}

// meshPlatform builds a full mesh over the named hosts (dedicated
// directional link pairs, so placements never contend in the test).
func meshPlatform(t *testing.T, hosts []string, power float64) *platform.Platform {
	t.Helper()
	pf := platform.New()
	for _, h := range hosts {
		if err := pf.AddHost(&platform.Host{Name: h, Power: power}); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range hosts {
		for j, b := range hosts {
			if i == j {
				continue
			}
			l := &platform.Link{Name: "l-" + a + "-" + b, Bandwidth: 1e9, Latency: 0}
			if err := pf.AddRoute(a, b, []*platform.Link{l}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return pf
}

// buildTopcuoglu constructs the paper DAG: computes n1..n10, one comm
// task per edge whose bytes are the edge's cost.
func buildTopcuoglu(t *testing.T, s *Simulation) []*Task {
	t.Helper()
	tasks := make([]*Task, 10)
	for i := range tasks {
		tasks[i] = s.NewTask("n"+itoa(i+1), 1)
	}
	for _, e := range topcuogluEdges {
		c := s.NewCommTask("c"+itoa(e.from)+"-"+itoa(e.to), e.cost)
		if err := s.AddDependency(tasks[e.from-1], c); err != nil {
			t.Fatal(err)
		}
		if err := s.AddDependency(c, tasks[e.to-1]); err != nil {
			t.Fatal(err)
		}
	}
	return tasks
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

func topcuogluOptions(hosts []string) *HEFTOptions {
	col := map[string]int{"P1": 0, "P2": 1, "P3": 2}
	return &HEFTOptions{
		Cost: func(t *Task, host string) float64 {
			row, _ := strconv.Atoi(t.Name()[1:]) // "n<k>": row k-1
			return topcuogluW[row-1][col[host]]
		},
		CommCost: func(c *Task, src, dst string) float64 {
			if src == dst || src == "" || dst == "" {
				return 0
			}
			return c.Amount()
		},
		MeanCommCost: func(c *Task) float64 {
			return c.Amount()
		},
	}
}

func TestHEFTReference(t *testing.T) {
	pooltest.Replay(t, 1, func() []byte { return checkTopcuoglu(t) })
}

// checkTopcuoglu plans the paper DAG, checks the plan against the
// paper, runs it and returns every task's realised host and finish
// bits, which TestHEFTReference replays with the free lists off too.
func checkTopcuoglu(t *testing.T) []byte {
	hosts := []string{"P1", "P2", "P3"}
	pf := meshPlatform(t, hosts, 1)
	s := New(pf, surf.DefaultConfig())
	tasks := buildTopcuoglu(t, s)

	st, err := ScheduleHEFTStats(s, hosts, topcuogluOptions(hosts))
	if err != nil {
		t.Fatalf("ScheduleHEFTStats: %v", err)
	}

	// Upward ranks match the paper's published values.
	rank := rankOf(s, hosts, topcuogluOptions(hosts))
	for i, want := range topcuogluRanks {
		got := rank(tasks[i])
		if math.Abs(got-want) > 0.05 {
			t.Errorf("rank(n%d) = %.3f, want %.3f", i+1, got, want)
		}
	}
	// The critical path is n1's rank.
	if math.Abs(st.CriticalPath-108) > 0.05 {
		t.Errorf("critical path = %.3f, want 108", st.CriticalPath)
	}

	// The plan replays Figure 3(a): same scheduling order, processors
	// and intervals, makespan 80.
	if len(st.Plan) != len(topcuogluPlan) {
		t.Fatalf("plan has %d entries, want %d", len(st.Plan), len(topcuogluPlan))
	}
	for i, want := range topcuogluPlan {
		got := st.Plan[i]
		if got.Task != tasks[want.task-1] || got.Host != want.host ||
			math.Abs(got.Start-want.start) > 1e-9 || math.Abs(got.Finish-want.finish) > 1e-9 {
			t.Errorf("plan[%d] = %s on %s [%g,%g], want n%d on %s [%g,%g]",
				i, got.Task.Name(), got.Host, got.Start, got.Finish,
				want.task, want.host, want.start, want.finish)
		}
	}
	if math.Abs(st.PlannedMakespan-80) > 1e-9 {
		t.Errorf("planned makespan = %g, want 80", st.PlannedMakespan)
	}

	// Parallelism profile of the paper DAG: entry, 5-wide fan-out,
	// 3-wide join layer, exit.
	wantLevels := []int{1, 5, 3, 1}
	if len(st.Levels) != len(wantLevels) {
		t.Fatalf("levels = %v, want %v", st.Levels, wantLevels)
	}
	for i := range wantLevels {
		if st.Levels[i] != wantLevels[i] {
			t.Fatalf("levels = %v, want %v", st.Levels, wantLevels)
		}
	}
	if st.MaxParallelism != 5 {
		t.Errorf("max parallelism = %d, want 5", st.MaxParallelism)
	}

	// The placements drive a real run to completion (estimates steer,
	// the contention model executes).
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if s.FailedCount() != 0 {
		t.Fatalf("%d tasks failed", s.FailedCount())
	}
	if g := s.Engine().Spawned(); g != 0 {
		t.Fatalf("%d goroutines spawned, want 0", g)
	}
	var out []byte
	for _, task := range tasks {
		out = fmt.Appendf(out, "%s@%s %016x\n", task.Name(), task.Host(), math.Float64bits(task.Finish()))
	}
	return out
}

// linearFit is the insertion policy's gap search as first written:
// every span from the head, the first gap that holds [start, start+w).
func linearFit(spans []heftSpan, ready, w float64) float64 {
	prevEnd := 0.0
	for _, sp := range spans {
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

// TestHEFTFitMatchesLinearScan holds heftPlanner.fit to the linear scan
// bit for bit on random interval lists built by occupy — touching and
// zero-length spans included — with ready times drawn from the span
// edges themselves, before the head and past the tail, and zero-length
// requests.
func TestHEFTFitMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
	p := &heftPlanner{slots: make([][]heftSpan, 1)}
	for list := 0; list < 300; list++ {
		p.slots[0] = nil
		at := 0.0
		for n := rng.Intn(12); n > 0; n-- { // list 0 and a few others stay empty
			at += pick(0, 0, rng.Float64(), 3*rng.Float64())
			w := pick(0, rng.Float64(), 2*rng.Float64())
			p.occupy(0, at, w)
			at += w
		}
		spans := p.slots[0]
		edges := []float64{0, at, at + 1, -1}
		for _, sp := range spans {
			edges = append(edges, sp.start, sp.end, (sp.start+sp.end)/2)
		}
		for q := 0; q < 200; q++ {
			ready := edges[rng.Intn(len(edges))]
			if rng.Intn(4) == 0 {
				ready = rng.Float64() * (at + 2)
			}
			w := pick(0, rng.Float64(), rng.Float64()/8, 4)
			got, want := p.fit(0, ready, w), linearFit(spans, ready, w)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("spans %v, ready %v, w %v: fit %v, linear scan %v", spans, ready, w, got, want)
			}
		}
	}
}

// TestHEFTvsMinMinProperty cross-checks HEFT and min-min on seeded
// random layered DAGs: both must produce valid schedules — every unit
// placed, HEFT's planned intervals non-overlapping per host, ranks
// non-increasing along dependency edges, and a clean simulated run.
func TestHEFTvsMinMinProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(8, seed))
		if err != nil {
			t.Fatal(err)
		}
		var hosts []string
		for _, h := range pf.Hosts() {
			hosts = append(hosts, h.Name)
		}

		build := func() (*Simulation, []*Task) {
			s := New(pf, surf.DefaultConfig())
			cfg := DefaultRandomConfig(5, 12, seed)
			cfg.PtaskProb = 0.1
			cfg.PtaskSlots = 2
			tasks, err := RandomLayered(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s, tasks
		}

		// HEFT lane.
		s1, _ := build()
		st, err := ScheduleHEFTStats(s1, hosts, nil)
		if err != nil {
			t.Fatalf("seed %d: heft: %v", seed, err)
		}
		spans := make(map[string][]heftSpan)
		for _, pl := range st.Plan {
			if pl.Host == "" {
				t.Fatalf("seed %d: %s unplaced", seed, pl.Task.Name())
			}
			if pl.Task.Kind() == Parallel {
				for _, h := range pl.Task.ParallelHosts() {
					spans[h] = append(spans[h], heftSpan{pl.Start, pl.Finish})
				}
			} else {
				spans[pl.Host] = append(spans[pl.Host], heftSpan{pl.Start, pl.Finish})
			}
		}
		for _, h := range hosts {
			sp := spans[h]
			sort.Slice(sp, func(i, j int) bool { return sp[i].start < sp[j].start })
			for i := 1; i < len(sp); i++ {
				if sp[i].start < sp[i-1].end-1e-9 {
					t.Fatalf("seed %d: host %s overlap: [%g,%g] then [%g,%g]",
						seed, h, sp[i-1].start, sp[i-1].end, sp[i].start, sp[i].end)
				}
			}
		}
		rank := rankOf(s1, hosts, nil)
		for _, task := range s1.Tasks() {
			r := rank(task)
			for _, succ := range task.Dependents() {
				if rs := rank(succ); rs > r+1e-9 {
					t.Fatalf("seed %d: rank(%s)=%g < rank of successor %s=%g",
						seed, task.Name(), r, succ.Name(), rs)
				}
			}
		}
		if _, err := s1.Simulate(); err != nil {
			t.Fatalf("seed %d: heft simulate: %v", seed, err)
		}
		if s1.FailedCount() != 0 {
			t.Fatalf("seed %d: heft: %d failed", seed, s1.FailedCount())
		}

		// Min-min lane on the identical DAG.
		s2, _ := build()
		if err := ScheduleMinMin(s2, hosts); err != nil {
			t.Fatalf("seed %d: minmin: %v", seed, err)
		}
		if _, err := s2.Simulate(); err != nil {
			t.Fatalf("seed %d: minmin simulate: %v", seed, err)
		}
		if s2.FailedCount() != 0 {
			t.Fatalf("seed %d: minmin: %d failed", seed, s2.FailedCount())
		}
		if s1.DoneCount() != s2.DoneCount() {
			t.Fatalf("seed %d: done count differs: heft %d, minmin %d",
				seed, s1.DoneCount(), s2.DoneCount())
		}
	}
}

// TestHEFTBeatsRoundRobinOnDAX pins the acceptance criterion: on the
// bundled Montage-shaped DAX and a heterogeneous star platform, HEFT's
// simulated makespan beats round-robin's.
func TestHEFTBeatsRoundRobinOnDAX(t *testing.T) {
	const dax = "../../cmd/simdag-run/testdata/sample.dax"
	pf := platform.New()
	if err := pf.AddRouter("sw"); err != nil {
		t.Fatal(err)
	}
	powers := []float64{1e9, 2e9, 4e9, 8e9}
	var hosts []string
	for i, p := range powers {
		name := "h" + itoa(i)
		hosts = append(hosts, name)
		if err := pf.AddHost(&platform.Host{Name: name, Power: p}); err != nil {
			t.Fatal(err)
		}
		l := &platform.Link{Name: "up" + itoa(i), Bandwidth: 1e8, Latency: 1e-4}
		if err := pf.Connect(name, "sw", l); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}

	run := func(sched func(*Simulation, []string) error) float64 {
		s := New(pf, surf.DefaultConfig())
		f, err := os.Open(dax)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := LoadDAX(s, f); err != nil {
			t.Fatal(err)
		}
		if err := sched(s, hosts); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Simulate(); err != nil {
			t.Fatal(err)
		}
		if s.FailedCount() != 0 {
			t.Fatalf("%d tasks failed", s.FailedCount())
		}
		return s.Makespan()
	}

	heft := run(ScheduleHEFT)
	rr := run(ScheduleRoundRobin)
	if heft >= rr {
		t.Fatalf("HEFT makespan %g does not beat round-robin %g", heft, rr)
	}
	t.Logf("makespans: heft %.4f, rr %.4f (%.1f%%)", heft, rr, 100*heft/rr)
}

// rankOf recomputes the upward ranks a HEFT pass over hosts with opts
// sorts by: rank(t) = weight(t) + the largest successor rank. A
// terminal task, or one created after rankOf is called, is unranked
// (NaN) and never wins a successor max, as in ScheduleHEFTStats. Call
// it right after the pass, before the DAG runs: a ptask weighs its
// placement.
func rankOf(s *Simulation, hosts []string, opts *HEFTOptions) func(*Task) float64 {
	ct := &costTable{pf: s.pf, rows: make(map[string][]wire)}
	ct.names, ct.id = internHosts(hosts)
	ct.n = len(ct.names)
	for _, h := range ct.names {
		ct.power = append(ct.power, s.pf.Host(h).Power)
	}
	o := resolveHEFTOptions(ct, opts)
	n, memo := len(s.tasks), make(map[*Task]float64)
	var rank func(*Task) float64
	rank = func(t *Task) float64 {
		if r, ok := memo[t]; ok {
			return r
		}
		r := math.NaN()
		if !t.terminal() && int(t.seq) < n {
			best := 0.0
			for it, succ := t.succs(); succ != nil; succ = it.next() {
				if rs := rank(succ); rs > best {
					best = rs
				}
			}
			r = o.weight(t) + best
		}
		memo[t] = r
		return r
	}
	return rank
}
