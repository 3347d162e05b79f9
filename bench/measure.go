package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// stat is one metric of one workload: the median of its repetitions,
// which is the value reported, with their quartiles and count.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// spread is the interquartile distance as a share of the median: a
// difference between two runs that is smaller than this is not resolved.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func exact(v float64, unit string) stat { return stat{Median: v, Q1: v, Q3: v, N: 1, Unit: unit} }

// summarize gives the median of the repetitions and the quartiles of
// Python's statistics.quantiles(values, n=4), the rule the acceptance
// check applies across runs, so spreads within a run read the same way.
func summarize(values []float64, unit string) stat {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 1 {
		return exact(x[0], unit)
	}
	s := stat{Median: x[n/2], N: n, Unit: unit}
	if n%2 == 0 {
		s.Median = (x[n/2-1] + x[n/2]) / 2
	}
	quart := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - 4*j)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	s.Q1, s.Q3 = quart(1), quart(3)
	return s
}

// sample is one repetition: set-up, then the run phase.
type sample struct {
	setupS, runS  float64
	allocs, bytes uint64 // heap objects and bytes allocated over the run phase
	gcCycles      uint32
	gcPauseNs     uint64
	out           outcome
	runSpan       int // traced repetition: index of the run span
}

// repetition sets the workload up from nothing and runs it once. A
// collection between the two phases gives every run phase the same
// starting heap, so set-up garbage is not charged to the run.
func repetition(w *workload, t tier, seed int64, tr *tracer) (sample, error) {
	var s sample
	id := tr.begin("setup")
	t0 := time.Now()
	r, err := w.setup(t, seed, tr)
	s.setupS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return s, fmt.Errorf("%s %s set-up: %w", w.name, t.name, err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.runSpan = tr.begin("run")
	t0 = time.Now()
	err = r.run(tr)
	s.runS = time.Since(t0).Seconds()
	tr.end(s.runSpan)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return s, fmt.Errorf("%s %s run: %w", w.name, t.name, err)
	}
	s.allocs = m1.Mallocs - m0.Mallocs
	s.bytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	s.out = r.outcome()
	return s, nil
}

// session is the measurement of one workload in one benchmark run:
// what to measure, and the correctness of everything run so far.
type session struct {
	w    *workload
	opt  options
	gold goldens

	attempted, failed int
	problems          []string
	digests           map[string]string  // tier → digest seen in this run
	ref               map[string]outcome // tier → its first repetition's result
}

func (s *session) problem(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// rep runs one repetition and books its result. The result must equal
// the tier's first repetition (the simulation is deterministic) and the
// pinned golden when this seed has one; otherwise every operation in it
// counts as failed.
func (s *session) rep(t tier, tr *tracer) (sample, error) {
	smp, err := repetition(s.w, t, s.opt.seed, tr)
	if err != nil {
		return smp, err
	}
	o := smp.out
	ref, seen := s.ref[t.name]
	if !seen {
		if s.ref == nil {
			s.ref = make(map[string]outcome)
			s.digests = make(map[string]string)
		}
		s.ref[t.name], ref = o, o
	}
	where := fmt.Sprintf("%s/%s seed %d", s.w.name, t.name, s.opt.seed)
	s.attempted += o.activities
	bad := o.failed
	if o.failed > 0 {
		s.problem("%s: %d of %d operations failed", where, o.failed, o.activities)
	}
	if o.activities != ref.activities || o.failed != ref.failed ||
		math.Float64bits(o.makespan) != math.Float64bits(ref.makespan) ||
		(!o.noDigest && o.digest != ref.digest) {
		s.problem("%s: repetitions disagree: %+v then %+v", where, ref, o)
		bad = o.activities
	}
	if !o.noDigest {
		hex := strconv.FormatUint(o.digest, 16)
		s.digests[t.name] = hex
		if want, pinned := s.gold.lookup(s.w.name+"/"+t.name, s.opt.seed); pinned && want != hex {
			s.problem("%s: digest %s, golden %s", where, hex, want)
			bad = o.activities
		}
	}
	s.failed += bad
	return smp, nil
}

// series collects the timed repetitions of one tier.
type series struct{ us, allocs, bytes, setup []float64 }

func (r *series) add(s sample) {
	n := float64(s.out.activities)
	r.us = append(r.us, s.runS*1e6/n)
	r.allocs = append(r.allocs, float64(s.allocs)/n)
	r.bytes = append(r.bytes, float64(s.bytes)/n)
	r.setup = append(r.setup, s.setupS)
}

// minReps is how many timed repetitions every median rests on at least.
const minReps = 5

// repsFor sizes a measurement: as many repetitions as fit the budget
// given what the warm-up took, at least the configured minimum.
func (o options) repsFor(budget, warmup float64, most int) int {
	n := int(budget/warmup) - 1
	if n > most {
		n = most
	}
	if n < o.reps {
		n = o.reps
	}
	return n
}

// endToEnd measures the user-visible metrics with no profiler, registry
// or tracer attached. Full-tier and base-tier repetitions alternate, so
// that both sides of growth_ratio see the same spells of the host. The
// first pair is a warm-up: it fills the goroutine pool and the
// allocator, and tells how many pairs fit the time budget.
func (s *session) endToEnd() (map[string]stat, error) {
	fullT, baseT := s.w.tiers(s.opt.tiny)
	var full, base series
	var ratios []float64
	pairs := 1
	for i := 0; i <= pairs; i++ {
		t0 := time.Now()
		f, err := s.rep(fullT, nil)
		if err != nil {
			return nil, err
		}
		b, err := s.rep(baseT, nil)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			pairs = s.opt.repsFor(s.opt.seconds, time.Since(t0).Seconds(), 40)
			continue
		}
		full.add(f)
		base.add(b)
		ratios = append(ratios, full.us[i-1]/base.us[i-1])
	}
	us := summarize(full.us, "us")
	// The ratio of the two tiers' medians, with the quartiles of the
	// pair-by-pair ratios to show how well it is resolved.
	growth := summarize(ratios, "ratio")
	growth.Median = us.Median / summarize(base.us, "us").Median
	return map[string]stat{
		"us_per_activity":     us,
		"growth_ratio":        growth,
		"allocs_per_activity": summarize(full.allocs, "count"),
		"bytes_per_activity":  summarize(full.bytes, "B"),
		"setup_s":             summarize(full.setup, "s"),
		"sim_makespan_s":      exact(s.ref[fullT.name].makespan, "sim_s"),
	}, nil
}

// peakRSSMB is the process's resident-set high-water mark (Linux
// reports it in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// layers runs the traced repetition — after a warm-up and a few
// untraced repetitions that give the baseline for the profiler's
// overhead — and derives the per-layer metrics from its spans, phase
// totals and counters.
func (s *session) layers(tr *tracer) (map[string]stat, error) {
	t, _ := s.w.tiers(s.opt.tiny)
	var untraced series
	for i := 0; i <= 3; i++ {
		smp, err := s.rep(t, nil)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			untraced.add(smp)
		}
	}
	traced, err := s.rep(t, tr)
	if err != nil {
		return nil, err
	}
	cnt, err := tr.counters()
	if err != nil {
		return nil, err
	}

	run := tr.spans[traced.runSpan].seconds()
	share := func(name string) float64 { return tr.total(name) / run }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	sendRecvHit := cnt["msg.send_pool.hit"] + cnt["msg.recv_pool.hit"]
	return map[string]stat{
		"platform.build_s": exact(tr.total("platform.build"), "s"),

		"maxmin.solve_share":     exact(share("maxmin.solve"), "ratio"),
		"maxmin.solves":          exact(cnt["maxmin.solves"], "count"),
		"maxmin.vars_per_solve":  exact(ratio(cnt["maxmin.scope_vars"], cnt["maxmin.solves"]), "count"),
		"maxmin.parallel_solves": exact(cnt["maxmin.parallel_solves"], "count"),

		"surf.advance_share":         exact(share("surf.advance"), "ratio"),
		"surf.actions":               exact(cnt["surf.actions_started"], "count"),
		"surf.heap_peak":             exact(cnt["surf.heap_peak"], "count"),
		"surf.action_pool_hit_ratio": exact(ratio(cnt["surf.action_pool.hit"], cnt["surf.action_pool.hit"]+cnt["surf.action_pool.miss"]), "ratio"),

		"core.dispatch_share":     exact(share("core.dispatch"), "ratio"),
		"core.timer_share":        exact(share("core.timers"), "ratio"),
		"core.simcalls_slow":      exact(cnt["core.simcalls_slow"], "count"),
		"core.simcall_fast_ratio": exact(ratio(cnt["core.simcalls_fast"], cnt["core.simcalls_fast"]+cnt["core.simcalls_slow"]), "ratio"),
		"core.goroutine_spawns":   exact(cnt["core.goroutine_spawns"], "count"),
		"core.goroutines_peak":    exact(cnt["core.goroutines_peak"], "count"),

		"msg.build_s": exact(tr.total("msg.build"), "s"),
		"msg.rendezvous_pool_hit_ratio": exact(ratio(sendRecvHit,
			sendRecvHit+cnt["msg.send_pool.miss"]+cnt["msg.recv_pool.miss"]), "ratio"),

		"simdag.build_s":     exact(tr.total("simdag.build"), "s"),
		"simdag.sched_s":     exact(tr.total("simdag.sched"), "s"),
		"simdag.sched_share": exact(share("simdag.sched"), "ratio"),
		"simdag.simulate_s":  exact(tr.total("simdag.simulate"), "s"),
		"simdag.reschedules": exact(cnt["simdag.reschedules"], "count"),

		"faults.compile_arm_s": exact(tr.total("faults.compile_arm"), "s"),
		"faults.events":        exact(cnt["faults.injections"]+cnt["faults.recoveries"], "count"),
		"sweep.expand_s":       exact(tr.total("sweep.expand"), "s"),
		"sweep.report_s":       exact(tr.total("sweep.report"), "s"),
		"sweep.runs":           exact(float64(tr.count("sweep.run")), "count"),

		"instr.profiler_overhead": exact(traced.runS*1e6/float64(traced.out.activities)/summarize(untraced.us, "us").Median, "ratio"),
		"host.gc_cycles":          exact(float64(traced.gcCycles), "count"),
		"host.gc_pause_ms":        exact(float64(traced.gcPauseNs)/1e6, "ms"),
		"host.peak_rss_mb":        exact(peakRSSMB(), "MB"),
	}, nil
}
