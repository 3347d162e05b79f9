// sweep runs a declarative experiment campaign: a grid of platform ×
// workload × scheduler × solver × faults × seed expanded into isolated
// runs (one engine each), executed with bounded fanout, reported as
// schema-versioned JSON.
//
//	sweep -campaign default -out out/              # bundled grid, 36 runs
//	sweep -campaign baseline -fanout 4 -out out/   # the CI baseline grid
//	sweep -spec mygrid.json -seed 7                # custom grid
//	sweep -campaign baseline -check BENCH_sweep_baseline.json
//
// The report is a pure function of (grid, seed):
// byte-identical across repeats and across -fanout settings. -check
// regenerates the campaign and compares the report's structure against
// an existing file — schema drift fails, value drift doesn't.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/sweep"
)

func main() {
	campaign := flag.String("campaign", "default", "bundled campaign: default, baseline, or faulty")
	specPath := flag.String("spec", "", "JSON campaign spec (overrides -campaign)")
	outDir := flag.String("out", ".", "directory to write BENCH_sweep_<name>.json into")
	seed := flag.Int64("seed", 1, "campaign seed (per-run seeds derive from it by key hash)")
	fanout := flag.Int("fanout", 1, "concurrent runs (clamped to GOMAXPROCS)")
	check := flag.String("check", "", "compare the report's schema against this file instead of writing")
	stdout := flag.Bool("stdout", false, "write the report to stdout instead of a file")
	flag.Parse()

	var spec *sweep.Spec
	var err error
	if *specPath != "" {
		spec, err = sweep.Load(*specPath)
		if err != nil {
			fatal(err)
		}
	} else if spec = sweep.ByName(*campaign); spec == nil {
		fatal(fmt.Errorf("unknown campaign %q (bundled: default, baseline, faulty)", *campaign))
	}

	rep, err := sweep.Execute(spec, *seed, sweep.Options{Fanout: *fanout})
	if err != nil {
		fatal(err)
	}
	data, err := sweep.Marshal(rep)
	if err != nil {
		fatal(err)
	}

	if *check != "" {
		want, err := os.ReadFile(*check)
		if err != nil {
			fatal(err)
		}
		if err := sweep.CheckSchema(data, want); err != nil {
			fatal(fmt.Errorf("schema drift against %s: %w", *check, err))
		}
		fmt.Printf("schema ok: %s matches campaign %q (%d runs)\n", *check, rep.Campaign, rep.Points)
		return
	}

	if *stdout {
		os.Stdout.Write(data)
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(*outDir, "BENCH_sweep_"+rep.Campaign+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d runs, seed %d)\n", path, rep.Points, rep.Seed)
	for _, sched := range sortedSchedulers(rep) {
		a := rep.ByScheduler[sched]
		fmt.Printf("  %-8s %3d runs  makespan mean %10.4f  [%.4f, %.4f]  failed %d  reschedules %d\n",
			sched, a.Runs, a.MakespanMean, a.MakespanMin, a.MakespanMax, a.Failed, a.Reschedules)
	}
}

func sortedSchedulers(rep *sweep.CampaignReport) []string {
	var keys []string
	for k := range rep.ByScheduler {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
