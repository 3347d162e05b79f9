package sweep

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpec feeds the campaign spec parser arbitrary bytes: every input
// is rejected with an error, or yields a spec that Validate accepts
// again and that Expand lists as the full cartesian product, in grid
// order, with one key per run and each run's seed derived from its key.
func FuzzSpec(f *testing.F) {
	for _, sp := range []*Spec{Baseline(), Default(), Faulty()} {
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		sp, err := parse(bytes.NewReader(raw), "fuzz")
		if err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("a parsed spec fails Validate: %v", err)
		}
		n := len(sp.Platforms) * len(sp.Workloads) * len(sp.Schedulers) * len(sp.Solvers) * len(sp.Faults) * len(sp.Seeds)
		if n > 1<<14 {
			return // a large grid is well-formed; listing it proves nothing more
		}
		runs, err := Expand(sp, 1)
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		if len(runs) != n {
			t.Fatalf("expanded %d runs, want %d", len(runs), n)
		}
		seen := make(map[string]bool, n)
		for i, r := range runs {
			if r.Index != i || seen[r.Key] || r.RunSeed != runSeed(1, r.Key) {
				t.Fatalf("run %d: index %d, key %q (seen before: %v), seed %d", i, r.Index, r.Key, seen[r.Key], r.RunSeed)
			}
			seen[r.Key] = true
		}
	})
}
