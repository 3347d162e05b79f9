package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func loadResults(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// worsening is by what share of a's median b is worse than a.
func worsening(m metricSpec, a, b stat) float64 {
	change := b.Median/a.Median - 1
	if m.Better == "higher" {
		return -change
	}
	return change
}

// compareResults prints one row per (workload, end-to-end metric): both
// medians, new ÷ old, and the verdict under the metric's bound. Where
// either side's own repetitions spread wider than the bound the row is
// unresolved, not same. It returns the number of rows judged worse.
func compareResults(spec *benchmarkSpec, old, cur []result) int {
	byName := make(map[string]*result)
	for i := range cur {
		byName[cur[i].Workload] = &cur[i]
	}
	worse := 0
	fmt.Printf("%-16s %-20s %14s %14s %18s  %s\n", "workload", "metric", "old", "new", "new/old", "verdict")
	for i := range old {
		o := &old[i]
		n := byName[o.Workload]
		if n == nil {
			fmt.Printf("%-16s missing from the new results\n", o.Workload)
			worse++
			continue
		}
		for _, m := range spec.EndToEnd {
			a, b := o.EndToEnd[m.Name], n.EndToEnd[m.Name]
			verdict := "same"
			switch {
			case math.Max(a.spread(), b.spread()) > m.Bound:
				verdict = "unresolved"
			case worsening(m, a, b) > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-16s %-20s %14.6g %14.6g %8.4f of %-8.4g %s\n",
				o.Workload, m.Name, a.Median, b.Median, b.Median/a.Median, a.Median, verdict)
		}
		if o.Failed != n.Failed {
			fmt.Printf("%-16s %-20s %14d %14d\n", o.Workload, "failed", o.Failed, n.Failed)
			if n.Failed > o.Failed {
				worse++
			}
		}
	}
	return worse
}

func compareFiles(specPath, oldPath, newPath string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	old, err := loadResults(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadResults(newPath)
	if err != nil {
		return err
	}
	if worse := compareResults(spec, old, cur); worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

// selfCheck measures everything twice in this process and fails if the
// two sets disagree: end-to-end medians beyond their bound in either
// direction; simulated results, digests and the layers' own counts at
// all. It also prints each metric's spread within a set, the number the
// bounds were chosen against.
func selfCheck(specPath string, opt options) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	gold, err := loadGoldens(opt.tiny)
	if err != nil {
		return err
	}
	opt.trace = -1
	var sets [2][]result
	for i := range sets {
		rs, _, err := runAll("", opt, gold)
		if err != nil {
			return err
		}
		sets[i] = rs
	}
	disagree := compareResults(spec, sets[0], sets[1]) + compareResults(spec, sets[1], sets[0])

	fmt.Printf("\n%-16s %-20s %10s %10s %8s\n", "workload", "metric", "spread 1", "spread 2", "bound")
	for i := range sets[0] {
		a, b := &sets[0][i], &sets[1][i]
		for _, m := range spec.EndToEnd {
			fmt.Printf("%-16s %-20s %10.4f %10.4f %8.2f\n", a.Workload, m.Name,
				a.EndToEnd[m.Name].spread(), b.EndToEnd[m.Name].spread(), m.Bound)
		}
		exactly := func(what string, x, y any) {
			if fmt.Sprint(x) != fmt.Sprint(y) {
				fmt.Printf("%s %s: %v then %v\n", a.Workload, what, x, y)
				disagree++
			}
		}
		exactly("sim_makespan_s", a.EndToEnd["sim_makespan_s"].Median, b.EndToEnd["sim_makespan_s"].Median)
		exactly("failed", a.Failed, b.Failed)
		exactly("digests", a.Digests, b.Digests)
		for name, s := range a.PerLayer {
			// The layers' counters repeat exactly; the host's collector
			// counts are wall-clock business.
			if s.Unit == "count" && !strings.HasPrefix(name, "host.") {
				exactly(name, s.Median, b.PerLayer[name].Median)
			}
		}
		if a.Failed > 0 || len(a.Problems) > 0 || len(b.Problems) > 0 {
			fmt.Printf("%s: failed its correctness check\n", a.Workload)
			disagree++
		}
	}
	if disagree > 0 {
		return fmt.Errorf("selfcheck: %d disagreement(s) between two runs of the same build", disagree)
	}
	fmt.Println("selfcheck: the two runs agree")
	return nil
}
