// Grid expansion and execution. Every run is fully isolated — its own
// platform, surf model and core.Engine — and seeded as
// campaignSeed ⊕ FNV-1a(run key), the same derivation idiom as
// faults.subSeed: a run's stream depends only on its own coordinates,
// so adding grid points never shifts a sibling's draw. Execution order
// is therefore free: fanout N and fanout 1 produce identical reports,
// which the determinism lane diffs byte-for-byte.

package sweep

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/instr"
	"repro/internal/simdag"
)

// Run is one expanded grid point.
type Run struct {
	Index     int
	Key       string
	Platform  *PlatformSpec
	Workload  *WorkloadSpec
	Scheduler string
	Solver    *SolverSpec
	Fault     *FaultSpec
	Seed      int64 // the seed-axis value
	RunSeed   int64 // derived engine/workload/fault seed
}

// runSeed derives a run's seed from the campaign seed and its key —
// never from its position in the grid.
func runSeed(campaign int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return campaign ^ int64(h.Sum64())
}

// Expand lists the campaign's runs in grid order (platforms outermost,
// seeds innermost).
func Expand(sp *Spec, campaignSeed int64) ([]Run, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	var runs []Run
	for pi := range sp.Platforms {
		for wi := range sp.Workloads {
			for _, sched := range sp.Schedulers {
				for vi := range sp.Solvers {
					for fi := range sp.Faults {
						for _, seed := range sp.Seeds {
							key := sp.Platforms[pi].Name +
								"/" + sp.Workloads[wi].Name +
								"/" + sched +
								"/" + sp.Solvers[vi].Name +
								"/" + sp.Faults[fi].Name +
								"/" + strconv.FormatInt(seed, 10)
							runs = append(runs, Run{
								Index:     len(runs),
								Key:       key,
								Platform:  &sp.Platforms[pi],
								Workload:  &sp.Workloads[wi],
								Scheduler: sched,
								Solver:    &sp.Solvers[vi],
								Fault:     &sp.Faults[fi],
								Seed:      seed,
								RunSeed:   runSeed(campaignSeed, key),
							})
						}
					}
				}
			}
		}
	}
	return runs, nil
}

// Options tunes campaign execution.
type Options struct {
	// Fanout bounds concurrent runs: ≤1 sequential. Worker goroutines
	// interleave even on one CPU, so the concurrent path is exercised
	// regardless of GOMAXPROCS.
	Fanout int
	// Perf attaches wall-clock PerfStat to each run. Only honoured at
	// fanout 1: concurrent siblings would smear the timings.
	Perf bool
}

// Execute expands and runs the campaign, returning the report. The
// report (perf subtree aside) is a pure function of (sp, campaignSeed).
func Execute(sp *Spec, campaignSeed int64, opt Options) (*CampaignReport, error) {
	runs, err := Expand(sp, campaignSeed)
	if err != nil {
		return nil, err
	}
	fanout := opt.Fanout
	if fanout < 1 {
		fanout = 1
	}
	perf := opt.Perf && fanout == 1

	stats := make([]RunStat, len(runs))
	errs := make([]error, len(runs))
	if fanout == 1 {
		for i := range runs {
			stats[i], errs[i] = runOne(&runs[i], perf)
		}
	} else {
		// Bounded fanout: a fixed worker pool draining an index channel.
		// Results land at their run's index, so completion order (the
		// only scheduling-dependent thing here) never reaches the
		// report. This is host-side campaign orchestration, not
		// simulated time — each worker drives its own isolated engine.
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < fanout; w++ {
			wg.Add(1)
			go func() { // sanctioned spawn site: lint GoroutineAllow names Execute
				defer wg.Done()
				for i := range idx {
					stats[i], errs[i] = runOne(&runs[i], false)
				}
			}()
		}
		for i := range runs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: run %s: %w", runs[i].Key, err)
		}
	}

	rep := &CampaignReport{
		SchemaVersion: SchemaVersion,
		Campaign:      sp.Name,
		Seed:          campaignSeed,
		Points:        len(runs),
		Runs:          stats,
		ByScheduler:   aggregate(stats),
	}
	return rep, nil
}

// runOne executes a single grid point in a fresh engine.
func runOne(r *Run, perf bool) (RunStat, error) {
	var t0 time.Time
	var m0 runtime.MemStats
	if perf {
		runtime.ReadMemStats(&m0)
		t0 = time.Now() //lint:allow det-wallclock perf lane only: quarantined in RunStat.Perf, off in determinism runs
	}

	pf, hosts, err := r.Platform.Build()
	if err != nil {
		return RunStat{}, err
	}
	s := simdag.New(pf, r.Solver.Config())
	if err := r.Workload.Build(s, r.RunSeed); err != nil {
		return RunStat{}, err
	}

	var inj *faults.Injector
	if r.Fault.Active() {
		params, err := r.Fault.Params(hosts)
		if err != nil {
			return RunStat{}, err
		}
		sched, err := faults.Compile(r.RunSeed, params)
		if err != nil {
			return RunStat{}, err
		}
		inj, err = faults.Arm(sched, s.Model())
		if err != nil {
			return RunStat{}, err
		}
		s.SetReschedulePolicy(hosts)
	}

	place := simdag.Scheduler(r.Scheduler)
	if place == nil {
		return RunStat{}, fmt.Errorf("unknown scheduler %q", r.Scheduler)
	}
	if err := place(s, hosts); err != nil {
		return RunStat{}, err
	}
	if _, err := s.Simulate(); err != nil {
		return RunStat{}, err
	}

	reg := instr.NewRegistry()
	s.MetricsInto(reg)
	if inj != nil {
		inj.MetricsInto(reg)
	}
	metrics, err := snapshotMetrics(reg)
	if err != nil {
		return RunStat{}, err
	}

	tasks := s.Tasks()
	ptasks := 0
	for _, t := range tasks {
		if t.Kind() == simdag.Parallel {
			ptasks++
		}
	}
	st := RunStat{
		Key:         r.Key,
		Platform:    r.Platform.Name,
		Workload:    r.Workload.Name,
		Scheduler:   r.Scheduler,
		Solver:      r.Solver.Name,
		Faults:      r.Fault.Name,
		Seed:        r.Seed,
		RunSeed:     r.RunSeed,
		Makespan:    s.Makespan(),
		Tasks:       len(tasks),
		Ptasks:      ptasks,
		Done:        s.DoneCount(),
		Failed:      s.FailedCount(),
		Reschedules: s.Reschedules(),
		Metrics:     metrics,
	}
	if inj != nil {
		st.FaultEvents = inj.Applied()
	}
	if perf {
		wall := time.Since(t0) //lint:allow det-wallclock perf lane only: quarantined in RunStat.Perf, off in determinism runs
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		activities := len(tasks)
		if activities == 0 {
			activities = 1
		}
		st.Perf = &PerfStat{
			WallUs:        float64(wall.Nanoseconds()) / 1e3,
			UsPerActivity: float64(wall.Nanoseconds()) / float64(activities) / 1e3,
			Allocs:        int64(m1.Mallocs - m0.Mallocs),
			Bytes:         int64(m1.TotalAlloc - m0.TotalAlloc),
		}
	}
	return st, nil
}

// aggregate groups the per-run records by scheduler.
func aggregate(stats []RunStat) map[string]Aggregate {
	agg := make(map[string]Aggregate)
	var order []string
	for i := range stats {
		st := &stats[i]
		a, seen := agg[st.Scheduler]
		if !seen {
			order = append(order, st.Scheduler)
			a.MakespanMin = st.Makespan
			a.MakespanMax = st.Makespan
		}
		a.Runs++
		a.MakespanMean += st.Makespan
		if st.Makespan < a.MakespanMin {
			a.MakespanMin = st.Makespan
		}
		if st.Makespan > a.MakespanMax {
			a.MakespanMax = st.Makespan
		}
		a.Failed += st.Failed
		a.Reschedules += st.Reschedules
		agg[st.Scheduler] = a
	}
	sort.Strings(order)
	for _, k := range order {
		a := agg[k]
		a.MakespanMean /= float64(a.Runs)
		agg[k] = a
	}
	return agg
}
