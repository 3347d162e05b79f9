// Command bench is the repository's benchmark: five workloads driven
// through the public APIs of platform → maxmin → surf → core →
// {msg, simdag} → faults/sweep, one simulation at a time from a single
// process. It reports host time per simulated activity and the other
// end-to-end metrics from repetitions with nothing attached, per-layer
// metrics from one traced repetition plus isolated layer probes, and
// checks every simulated result against the other repetitions and the
// pinned digests in golden.json. See README.md.
//
//	bash bench/run.sh                            # all workloads, all metrics
//	bash bench/run.sh --workload msg_pairs --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh -compare old.json new.json
//	bash bench/run.sh -selfcheck
//	bash bench/run.sh -update-golden
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// procs is the benchmark's GOMAXPROCS, fixed for the benchmark and its
// tests alike. The kernel passes one token between goroutines, so a
// simulation never runs two of them at once; with a second P the Go
// scheduler wakes each handed-off goroutine on another thread, which on
// the 2-CPU host this was written on costs msg_pairs 9.2 µs per activity
// instead of 3.8, splits sweep_campaign's runs into two groups (45 and 66
// µs per task) and moved msg_backbone's growth_ratio from 37 to 48 between
// two ten-run sets of one build, against a largest allowed bound of 0.25.
// The programs in cmd/ run at the runtime default: README.md gives the
// default-P figures next to the baseline.
const procs = 1

func init() { runtime.GOMAXPROCS(procs) }

// End-to-end metric names, in report order. BENCHMARK.json carries the
// same names with their units and regression bounds.
var endToEndNames = []string{
	"us_per_activity", "growth_ratio", "allocs_per_activity",
	"bytes_per_activity", "setup_s", "sim_makespan_s",
}

//go:embed golden.json
var goldenJSON []byte

// goldens pins result digests: "workload/tier" → seed → hex digest.
type goldens map[string]map[string]string

func (g goldens) lookup(key string, seed int64) (string, bool) {
	d, ok := g[key][strconv.FormatInt(seed, 10)]
	return d, ok
}

// loadGoldens parses the embedded golden.json. The tiny tiers are not
// pinned: they are checked for repeating only.
func loadGoldens(tiny bool) (goldens, error) {
	var gold goldens
	if tiny {
		return gold, nil
	}
	if err := json.Unmarshal(goldenJSON, &gold); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return gold, nil
}

// goldenSeeds are the seeds golden.json pins: 1 is the development
// seed, 2 is held out.
var goldenSeeds = []int64{1, 2}

// result is what one workload measured in one benchmark run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digests   map[string]string `json:"digests"`
	EndToEnd  map[string]stat   `json:"end_to_end,omitempty"`
	PerLayer  map[string]stat   `json:"per_layer,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
}

func (r *result) failedShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// options selects what a benchmark run measures.
type options struct {
	seed    int64
	seconds float64
	// trace: 0 end-to-end metrics only, 1 per-layer metrics only, -1 both.
	trace int
	// tiny selects the tiers and probe sizes of the test suite, which
	// alone sets it; reps is the least number of timed repetitions.
	tiny bool
	reps int
}

// runWorkload measures one workload. Spans of its traced repetition are
// appended to *spans; probed, the layer probes' numbers, join its
// per-layer metrics.
func runWorkload(w *workload, opt options, gold goldens, probed map[string]stat, epoch time.Time, spans *[]span) (result, error) {
	res := result{Workload: w.name, Seed: opt.seed}
	s := session{w: w, opt: opt, gold: gold}
	var err error
	if opt.trace != 1 {
		if res.EndToEnd, err = s.endToEnd(); err != nil {
			return res, err
		}
	}
	if opt.trace != 0 {
		tr := newTracer(w.name, epoch, len(*spans))
		if res.PerLayer, err = s.layers(tr); err != nil {
			return res, err
		}
		for name, st := range probed {
			res.PerLayer[name] = st
		}
		*spans = append(*spans, tr.spans...)
	}
	res.Attempted, res.Failed = s.attempted, s.failed
	res.Digests, res.Problems = s.digests, s.problems
	return res, nil
}

// runAll measures the named workload, or all five when name is empty.
func runAll(name string, opt options, gold goldens) ([]result, []span, error) {
	ws := workloads
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return nil, nil, fmt.Errorf("unknown workload %q", name)
		}
		ws = []*workload{w}
	}
	epoch := time.Now()
	// The probes depend on no workload: they run once per benchmark run,
	// before any workload has grown the heap, and every workload reports
	// the same nine numbers next to its own layer metrics.
	var probed map[string]stat
	if opt.trace != 0 {
		var err error
		if probed, err = runProbes(opt, opt.seconds/2); err != nil {
			return nil, nil, err
		}
	}
	var results []result
	var spans []span
	for _, w := range ws {
		r, err := runWorkload(w, opt, gold, probed, epoch, &spans)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
	}
	return results, spans, nil
}

func sortedNames(m map[string]stat) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult prints every metric of one workload by name with its
// unit, the median and quartiles of its repetitions and their count.
func printResult(r *result) {
	fmt.Printf("== %s (seed %d): %d operations attempted, %d failed, failed_share %g\n   %s\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.failedShare(), workloadByName(r.Workload).why)
	row := func(name string, s stat) {
		fmt.Printf("  %-34s %14.6g %-6s q1 %-12.6g q3 %-12.6g n %d\n", name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
	for _, name := range endToEndNames {
		if s, ok := r.EndToEnd[name]; ok {
			row(name, s)
		}
	}
	for _, name := range sortedNames(r.PerLayer) {
		row(name, r.PerLayer[name])
	}
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
}

// driverLine is the one-object summary the benchmark driver reads from
// the last line of standard output.
func driverLine(r *result, trace int) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	src := r.EndToEnd
	if trace == 1 {
		src = r.PerLayer
	}
	for name, s := range src {
		metrics[name] = value{s.Median, s.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && len(r.Problems) == 0, r.Attempted, r.Failed, metrics})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// updateGolden reruns every workload's two tiers once per golden seed
// and rewrites golden.json.
func updateGolden(path string) error {
	gold := goldens{}
	for _, w := range workloads {
		for _, t := range []tier{w.full, w.base} {
			key := w.name + "/" + t.name
			gold[key] = map[string]string{}
			for _, seed := range goldenSeeds {
				s, err := repetition(w, t, seed, nil)
				if err != nil {
					return err
				}
				if s.out.failed > 0 {
					return fmt.Errorf("%s seed %d: %d operations failed", key, seed, s.out.failed)
				}
				gold[key][strconv.FormatInt(seed, 10)] = strconv.FormatUint(s.out.digest, 16)
			}
		}
	}
	return writeJSON(path, gold)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all five)")
		seed         = flag.Int64("seed", 1, "seed the workload inputs are drawn from")
		seconds      = flag.Float64("seconds", 15, "time budget of one workload's measurement")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics, 1: per-layer metrics from the traced run and probes, -1: both")
		outDir       = flag.String("out", "bench/out", "directory for trace.json and result.json")
		benchJSON    = flag.String("benchmark-json", "BENCHMARK.json", "metric bounds for -compare and -selfcheck")
		compare      = flag.Bool("compare", false, "compare two result.json files given as arguments")
		selfcheck    = flag.Bool("selfcheck", false, "run everything twice and compare the two runs")
		update       = flag.Bool("update-golden", false, "rewrite bench/golden.json from the current simulator")
	)
	flag.Parse()
	if err := run(*workloadName, options{seed: *seed, seconds: *seconds, trace: *trace, reps: minReps},
		*outDir, *benchJSON, *compare, *selfcheck, *update, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, opt options, outDir, benchJSON string, compare, selfcheck, update bool, args []string) error {
	switch {
	case update:
		return updateGolden(filepath.Join("bench", "golden.json"))
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(benchJSON, args[0], args[1])
	case selfcheck:
		return selfCheck(benchJSON, opt)
	}

	gold, err := loadGoldens(opt.tiny)
	if err != nil {
		return err
	}
	results, spans, err := runAll(workloadName, opt, gold)
	if err != nil {
		return err
	}
	if opt.trace != 0 {
		trace := struct {
			Spans []span `json:"spans"`
		}{spans}
		if err := writeJSON(filepath.Join(outDir, "trace.json"), trace); err != nil {
			return err
		}
	}
	bad := 0
	for i := range results {
		printResult(&results[i])
		if results[i].Failed > 0 || len(results[i].Problems) > 0 {
			bad++
		}
	}
	if workloadName == "" {
		if err := writeJSON(filepath.Join(outDir, "result.json"), results); err != nil {
			return err
		}
	} else if opt.trace >= 0 {
		line, err := driverLine(&results[0], opt.trace)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if bad > 0 {
		return fmt.Errorf("%d workload(s) failed their correctness check", bad)
	}
	return nil
}
