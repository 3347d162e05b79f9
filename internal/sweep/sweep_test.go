package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pool/pooltest"
)

// TestSweepDeterminism is the campaign contract: the report's bytes are
// a pure function of (grid, seed) — identical across repeats in either
// pooling mode (the report carries the pool scoreboards, so the two
// modes differ from each other) and across fanout settings, for the
// baseline grid and the default 36-point one. CI additionally
// byte-compares the cmd/sweep binary's output files.
func TestSweepDeterminism(t *testing.T) {
	for _, c := range []struct {
		name string
		spec func() *Spec
	}{{"baseline", Baseline}, {"default", Default}} {
		t.Run(c.name, func(t *testing.T) {
			report := func(fanout int) []byte {
				rep, err := Execute(c.spec(), 1, Options{Fanout: fanout})
				if err != nil {
					t.Fatal(err)
				}
				b, err := Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			pooltest.ReplayPerMode(t, 5, func() []byte {
				narrow := report(1)
				if !bytes.Equal(narrow, report(4)) {
					t.Fatal("fanout 4 report differs from fanout 1")
				}
				return narrow
			})
		})
	}
}

// TestSweepSeedStability: a run's seed derives from its key, not its
// grid position — growing an axis must not shift sibling runs' results.
func TestSweepSeedStability(t *testing.T) {
	small := Baseline()
	ref, err := Execute(small, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	grown := Baseline()
	grown.Seeds = append(grown.Seeds, 99)
	grown.Schedulers = append(grown.Schedulers, "rr")
	big, err := Execute(grown, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]*RunStat, len(big.Runs))
	for i := range big.Runs {
		byKey[big.Runs[i].Key] = &big.Runs[i]
	}
	for i := range ref.Runs {
		r := &ref.Runs[i]
		g, ok := byKey[r.Key]
		if !ok {
			t.Fatalf("run %s missing from grown grid", r.Key)
		}
		if g.RunSeed != r.RunSeed {
			t.Fatalf("run %s: seed shifted %d → %d", r.Key, r.RunSeed, g.RunSeed)
		}
		a, err := Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("run %s: stats changed when the grid grew", r.Key)
		}
	}
}

// TestExpandGrid checks the expansion shape: full cartesian product,
// unique keys, grid order.
func TestExpandGrid(t *testing.T) {
	spec := Default()
	runs, err := Expand(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := len(spec.Platforms) * len(spec.Workloads) * len(spec.Schedulers) * len(spec.Seeds)
	if len(runs) != want {
		t.Fatalf("expanded %d runs, want %d", len(runs), want)
	}
	if want < 24 {
		t.Fatalf("default campaign has %d points, the gate needs ≥24", want)
	}
	seen := make(map[string]bool, len(runs))
	for i, r := range runs {
		if r.Index != i {
			t.Fatalf("run %d carries index %d", i, r.Index)
		}
		if seen[r.Key] {
			t.Fatalf("duplicate key %s", r.Key)
		}
		seen[r.Key] = true
	}
}

// TestSpecValidate rejects malformed grids.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "needs a name"},
		{"no platforms", func(s *Spec) { s.Platforms = nil }, "at least one entry"},
		{"no seeds", func(s *Spec) { s.Seeds = nil }, "at least one entry"},
		{"bad scheduler", func(s *Spec) { s.Schedulers = []string{"magic"} }, "unknown scheduler"},
		{"dup platform", func(s *Spec) {
			s.Platforms = append(s.Platforms, s.Platforms[0])
		}, "duplicate platform"},
		{"dup seed", func(s *Spec) { s.Seeds = append(s.Seeds, s.Seeds[0]) }, "duplicate seed"},
		{"slash in a name", func(s *Spec) { s.Workloads[0].Name = "a/b" }, "may not contain '/'"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := Baseline()
			tc.mut(spec)
			err := spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestLoadStrict: a spec file round-trips through Load, and one naming
// a field the schema does not have — a removed solver knob, a typo — is
// an error, never a silent run of the defaults.
func TestLoadStrict(t *testing.T) {
	spec := Baseline()
	if err := spec.Validate(); err != nil { // fills the default solver axis
		t.Fatal(err)
	}
	good, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	solver := `"solvers":[{"name":"default"`
	if !bytes.Contains(good, []byte(solver)) {
		t.Fatalf("baseline spec JSON has no %s to mutate", solver)
	}
	cases := []struct {
		name, json string
		want       string // error substring; "" = loads
	}{
		{"baseline", string(good), ""},
		{"removed workers knob", strings.Replace(string(good), solver, solver+`,"workers":4`, 1), `unknown field "workers"`},
		{"removed sequential knob", strings.Replace(string(good), solver, solver+`,"sequential":true`, 1), `unknown field "sequential"`},
		{"typo", strings.Replace(string(good), `"seeds"`, `"seedz"`, 1), `unknown field "seedz"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spec.json")
			if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
				t.Fatal(err)
			}
			sp, err := Load(path)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Load: %v", err)
			case tc.want == "" && sp.Name != Baseline().Name:
				t.Fatalf("loaded campaign %q, want %q", sp.Name, Baseline().Name)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestFaultyCampaign: the fault axis injects, the reschedule policy
// recovers, and the whole thing stays deterministic.
func TestFaultyCampaign(t *testing.T) {
	rep, err := Execute(Faulty(), 1, Options{Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	injected, rescheduled := 0, uint64(0)
	for i := range rep.Runs {
		r := &rep.Runs[i]
		if r.Faults == "none" {
			if r.FaultEvents != 0 {
				t.Fatalf("run %s: fault-free run saw %d events", r.Key, r.FaultEvents)
			}
			continue
		}
		injected += r.FaultEvents
		rescheduled += r.Reschedules
		if r.Done+r.Failed != r.Tasks {
			t.Fatalf("run %s: %d done + %d failed ≠ %d tasks", r.Key, r.Done, r.Failed, r.Tasks)
		}
	}
	if injected == 0 {
		t.Fatal("fault axis injected nothing")
	}
	if rescheduled == 0 {
		t.Fatal("no run rescheduled; the policy wiring is dead")
	}
	again, err := Execute(Faulty(), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Marshal(rep)
	b, _ := Marshal(again)
	if !bytes.Equal(a, b) {
		t.Fatal("faulty campaign is not deterministic")
	}
}

// TestPerfSubtree: -perf attaches wall-clock stats without touching the
// deterministic part, and is refused at fanout > 1.
func TestPerfSubtree(t *testing.T) {
	spec := Baseline()
	spec.Platforms = spec.Platforms[:1]
	spec.Seeds = spec.Seeds[:1]
	perf, err := Execute(spec, 1, Options{Fanout: 1, Perf: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range perf.Runs {
		if perf.Runs[i].Perf == nil {
			t.Fatalf("run %s: perf requested but absent", perf.Runs[i].Key)
		}
		if perf.Runs[i].Perf.WallUs <= 0 {
			t.Fatalf("run %s: non-positive wall time", perf.Runs[i].Key)
		}
		perf.Runs[i].Perf = nil
	}
	plain, err := Execute(spec, 1, Options{Fanout: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Marshal(perf)
	b, _ := Marshal(plain)
	if !bytes.Equal(a, b) {
		t.Fatal("stripping the perf subtree does not recover the deterministic report")
	}
	wide, err := Execute(spec, 1, Options{Fanout: 4, Perf: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wide.Runs {
		if wide.Runs[i].Perf != nil {
			t.Fatal("perf stats attached at fanout > 1")
		}
	}
}

// TestCheckSchema: value drift passes, structural drift fails.
func TestCheckSchema(t *testing.T) {
	ref := []byte(`{"schema_version":1,"runs":[{"makespan":1.5,"scheduler":"minmin","ok":true}],"n":2}`)
	cases := []struct {
		name string
		got  string
		ok   bool
	}{
		{"identical", `{"schema_version":1,"runs":[{"makespan":1.5,"scheduler":"minmin","ok":true}],"n":2}`, true},
		{"number drift", `{"schema_version":1,"runs":[{"makespan":9.9,"scheduler":"minmin","ok":true}],"n":7}`, true},
		{"missing key", `{"schema_version":1,"runs":[{"scheduler":"minmin","ok":true}],"n":2}`, false},
		{"new key", `{"schema_version":1,"runs":[{"makespan":1.5,"scheduler":"minmin","ok":true,"x":1}],"n":2}`, false},
		{"type change", `{"schema_version":1,"runs":[{"makespan":"1.5","scheduler":"minmin","ok":true}],"n":2}`, false},
		{"string drift", `{"schema_version":1,"runs":[{"makespan":1.5,"scheduler":"magic","ok":true}],"n":2}`, false},
		{"bool drift", `{"schema_version":1,"runs":[{"makespan":1.5,"scheduler":"minmin","ok":false}],"n":2}`, false},
		{"array length", `{"schema_version":1,"runs":[],"n":2}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckSchema([]byte(tc.got), ref)
			if (err == nil) != tc.ok {
				t.Fatalf("CheckSchema = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}
