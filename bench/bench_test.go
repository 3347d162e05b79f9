package main

import (
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"testing"
)

// tinyOptions runs every tier at its tiny size with two timed
// repetitions and no time budget to fill. Under the race detector the
// traced repetition and with it the per-layer half are left out:
// core.kernelTurn updates an attached profiler's dispatch total after it
// has handed the token on (README.md, "The traced run"), which the
// detector rightly reports and the benchmark may not fix.
func tinyOptions(seed int64) options {
	o := options{seed: seed, trace: -1, tiny: true, reps: 2}
	if raceDetector {
		o.trace = 0
	}
	return o
}

func runTiny(t *testing.T, seed int64) ([]result, []span) {
	t.Helper()
	results, spans, err := runAll("", tinyOptions(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if r := &results[i]; r.Failed != 0 || len(r.Problems) != 0 || r.Attempted == 0 {
			t.Fatalf("%s seed %d: attempted %d, failed %d, problems %v", r.Workload, seed, r.Attempted, r.Failed, r.Problems)
		}
	}
	return results, spans
}

// TestBenchmarkContract runs all five workloads and all probes at the
// tiny tier and holds the output against BENCHMARK.json: the same
// workloads, and for each of them exactly the declared metrics under
// the declared units.
func TestBenchmarkContract(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	results, spans := runTiny(t, 1)

	if len(results) != len(spec.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json lists %d", len(results), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if results[i].Workload != w.Name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: ran %q, BENCHMARK.json says %q", i, results[i].Workload, w.Name)
		}
	}
	sets := [][]metricSpec{spec.EndToEnd, spec.PerLayer}
	if raceDetector {
		sets = sets[:1]
	}
	for i := range results {
		r := &results[i]
		for trace, declared := range sets {
			line, err := driverLine(r, trace)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
				t.Errorf("%s trace %d: %s", r.Workload, trace, line)
			}
			if len(out.Metrics) != len(declared) {
				t.Errorf("%s trace %d: %d metrics emitted, %d declared", r.Workload, trace, len(out.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := out.Metrics[m.Name]
				switch {
				case !name.MatchString(m.Name):
					t.Errorf("metric name %q is outside the contract", m.Name)
				case !ok:
					t.Errorf("%s trace %d: %s not emitted", r.Workload, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", r.Workload, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
					t.Errorf("%s: %s = %v", r.Workload, m.Name, got.Value)
				case trace == 0 && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", r.Workload, m.Name)
				}
			}
		}
	}
	if !raceDetector {
		checkSpanTree(t, spans)
	}
}

// checkSpanTree: ids are positions, a parent comes before its children,
// belongs to the same workload and covers them.
func checkSpanTree(t *testing.T, spans []span) {
	t.Helper()
	roots := map[string]int{}
	for i, s := range spans {
		if s.ID != i {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d %s ends before it starts", i, s.Name)
		}
		if s.Parent == -1 {
			roots[s.Workload]++
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			t.Fatalf("span %d %s has parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Workload != s.Workload || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d %s [%d,%d] of %s is not inside its parent %s [%d,%d] of %s",
				i, s.Name, s.StartNs, s.EndNs, s.Workload, p.Name, p.StartNs, p.EndNs, p.Workload)
		}
	}
	for _, w := range workloads {
		// One traced repetition: a set-up span and a run span.
		if roots[w.name] != 2 {
			t.Errorf("%s has %d root spans, want setup and run", w.name, roots[w.name])
		}
	}
}

// TestSeedsAndDeterminism: the same seed gives the same simulated
// results and the same layer counts on a second run, another seed gives
// other inputs and other results.
func TestSeedsAndDeterminism(t *testing.T) {
	first, _ := runTiny(t, 1)
	again, _ := runTiny(t, 1)
	other, _ := runTiny(t, 2)
	for i := range first {
		a, b, c := &first[i], &again[i], &other[i]
		if !reflect.DeepEqual(a.Digests, b.Digests) || len(a.Digests) != 2 {
			t.Errorf("%s: digests %v then %v", a.Workload, a.Digests, b.Digests)
		}
		if a.EndToEnd["sim_makespan_s"] != b.EndToEnd["sim_makespan_s"] {
			t.Errorf("%s: makespan changed between runs of one seed", a.Workload)
		}
		for name, s := range a.PerLayer {
			if s.Unit == "count" && name != "host.gc_cycles" && s != b.PerLayer[name] {
				t.Errorf("%s: %s counted %v then %v", a.Workload, name, s.Median, b.PerLayer[name].Median)
			}
		}
		for tier, d := range a.Digests {
			if d == c.Digests[tier] {
				t.Errorf("%s/%s: seeds 1 and 2 give the same digest %s", a.Workload, tier, d)
			}
		}
	}
	for _, kind := range []string{"pairs", "dag", "campaign"} {
		if inputRand(kind, 1).Int63() == inputRand(kind, 2).Int63() {
			t.Errorf("%s inputs do not depend on the seed", kind)
		}
	}
}

// TestGoldenCoversEveryTier: golden.json pins both seeds of both tiers
// of every workload, and nothing else.
func TestGoldenCoversEveryTier(t *testing.T) {
	var gold goldens
	if err := json.Unmarshal(goldenJSON, &gold); err != nil {
		t.Fatal(err)
	}
	if len(gold) != 2*len(workloads) {
		t.Errorf("golden.json has %d entries, want %d", len(gold), 2*len(workloads))
	}
	for _, w := range workloads {
		for _, tier := range []string{"full", "base"} {
			for _, seed := range goldenSeeds {
				if _, ok := gold.lookup(w.name+"/"+tier, seed); !ok {
					t.Errorf("golden.json lacks %s/%s seed %d", w.name, tier, seed)
				}
			}
		}
	}
}

// TestGoldenMismatchFails: a wrong pinned digest turns every operation
// of the repetition into a failed one.
func TestGoldenMismatchFails(t *testing.T) {
	w := workloadByName("simdag_chains")
	s := session{w: w, opt: tinyOptions(1), gold: goldens{"simdag_chains/full": {"1": "0"}}}
	smp, err := s.rep(w.tinyFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != smp.out.activities || len(s.problems) != 1 {
		t.Errorf("failed %d of %d, problems %v", s.failed, smp.out.activities, s.problems)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, "x")
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 || s.spread() != 1 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	s = summarize([]float64{1, 2, 4, 8, 16}, "x")
	if s.Q1 != 1.5 || s.Median != 4 || s.Q3 != 12 {
		t.Errorf("got %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []metricSpec{
		{Name: "t", Better: "lower", Bound: 0.1},
		{Name: "hits", Better: "higher", Bound: 0.1},
	}}
	mk := func(tm, hits stat) []result {
		return []result{{Workload: "w", EndToEnd: map[string]stat{"t": tm, "hits": hits}}}
	}
	old := mk(exact(100, "us"), exact(10, "count"))
	for _, c := range []struct {
		name  string
		cur   []result
		worse int
	}{
		{"same", mk(exact(105, "us"), exact(9.5, "count")), 0},
		{"slower", mk(exact(120, "us"), exact(10, "count")), 1},
		{"fewer hits", mk(exact(100, "us"), exact(8, "count")), 1},
		{"faster", mk(exact(50, "us"), exact(20, "count")), 0},
		{"too noisy to call", mk(stat{Median: 120, Q1: 100, Q3: 140, N: 5}, exact(10, "count")), 0},
	} {
		if got := compareResults(spec, old, c.cur); got != c.worse {
			t.Errorf("%s: %d rows worse, want %d", c.name, got, c.worse)
		}
	}
}
