// Package sweep is the declarative experiment harness: a campaign is a
// grid (platform × workload × scheduler × solver × faults × seed) that
// expands to isolated runs — one core.Engine each — executed with
// bounded fanout, and reported as schema-versioned JSON.
//
// This file owns the report schema cmd/sweep writes as
// BENCH_sweep_*.json. The determinism contract is structural: a
// CampaignReport marshalled without the perf subtree is a pure function
// of (spec, campaign seed) — byte-identical across repeats and across
// fanout settings. Wall-clock numbers are quarantined in PerfStat,
// attached only on request.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/instr"
)

// SchemaVersion stamps every report this package writes. Bump it when
// a field changes meaning or shape; the CI drift check compares
// structure, so additive evolution bumps it too.
const SchemaVersion = 1

// PerfStat is the wall-clock side of one run, collected only when
// Options.Perf is set (and fanout is 1, so timings aren't smeared by
// sibling runs). It lives in its own subtree so the deterministic part
// of the report never embeds host-speed noise.
type PerfStat struct {
	WallUs        float64 `json:"wall_us"`
	UsPerActivity float64 `json:"us_per_activity"`
	Allocs        int64   `json:"allocs"`
	Bytes         int64   `json:"bytes"`
}

// RunStat is the deterministic record of one grid point.
type RunStat struct {
	Key       string `json:"key"`
	Platform  string `json:"platform"`
	Workload  string `json:"workload"`
	Scheduler string `json:"scheduler"`
	Solver    string `json:"solver"`
	Faults    string `json:"faults"`
	// Seed is the grid-axis seed; RunSeed is the engine seed derived
	// from it (campaign seed ⊕ FNV of the run key), so growing the grid
	// never shifts a sibling run's stream.
	Seed    int64 `json:"seed"`
	RunSeed int64 `json:"run_seed"`

	Makespan    float64 `json:"makespan"`
	Tasks       int     `json:"tasks"`
	Ptasks      int     `json:"ptasks"`
	Done        int     `json:"done"`
	Failed      int     `json:"failed"`
	Reschedules uint64  `json:"reschedules"`
	FaultEvents int     `json:"fault_events"`

	// Metrics is the instr.Registry snapshot of the run's engine, with
	// process-global entries (the shared worker-stack pool) filtered
	// out so the values are a pure function of the run.
	Metrics map[string]json.RawMessage `json:"metrics"`

	Perf *PerfStat `json:"perf,omitempty"`
}

// Aggregate summarizes the runs sharing one scheduler.
type Aggregate struct {
	Runs         int     `json:"runs"`
	MakespanMean float64 `json:"makespan_mean"`
	MakespanMin  float64 `json:"makespan_min"`
	MakespanMax  float64 `json:"makespan_max"`
	Failed       int     `json:"failed"`
	Reschedules  uint64  `json:"reschedules"`
}

// CampaignReport is a cmd/sweep output file.
type CampaignReport struct {
	SchemaVersion int                  `json:"schema_version"`
	Campaign      string               `json:"campaign"`
	Seed          int64                `json:"seed"`
	Points        int                  `json:"points"`
	Runs          []RunStat            `json:"runs"`
	ByScheduler   map[string]Aggregate `json:"by_scheduler"`
}

// Marshal renders a report with the project's JSON conventions
// (two-space indent, trailing newline) — the exact bytes the
// determinism lanes diff.
func Marshal(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// snapshotMetrics collects MetricsInto output into a filtered map.
// The core.worker_pool triad is process-global (shared stack pool) and
// would couple a run's bytes to its siblings' history; everything else
// in the registry is engine-local.
func snapshotMetrics(reg *instr.Registry) (map[string]json.RawMessage, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var flat map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &flat); err != nil {
		return nil, err
	}
	for _, name := range globalMetricNames(flat) {
		delete(flat, name)
	}
	return flat, nil
}

// globalMetricNames lists the keys to strip (collected first: no
// mutation while ranging, and DetPkgs forbids map ranges outside this
// read-only scan anyway).
func globalMetricNames(flat map[string]json.RawMessage) []string {
	var names []string
	for name := range flat { //lint:allow det-maprange collected then sorted; deletion order is irrelevant
		if strings.HasPrefix(name, "core.worker_pool.") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// CheckSchema compares the structure of two JSON documents and returns
// a descriptive error on drift. Structure means: objects must carry the
// same key set, arrays the same length with matching elements, numbers
// must stay numbers (values free to differ — perf numbers drift by
// design), strings and booleans must match exactly (they encode names
// and axes, not measurements).
func CheckSchema(got, want []byte) error {
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("sweep: generated report: %w", err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("sweep: reference report: %w", err)
	}
	return checkNode("$", g, w)
}

func checkNode(path string, got, want any) error {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Errorf("sweep: %s: object became %T", path, got)
		}
		keys := sortedKeys(w)
		for _, k := range keys {
			gv, ok := g[k]
			if !ok {
				return fmt.Errorf("sweep: %s: key %q disappeared", path, k)
			}
			if err := checkNode(path+"."+k, gv, w[k]); err != nil {
				return err
			}
		}
		if len(g) != len(w) {
			for _, k := range sortedKeys(g) {
				if _, ok := w[k]; !ok {
					return fmt.Errorf("sweep: %s: new key %q", path, k)
				}
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			return fmt.Errorf("sweep: %s: array became %T", path, got)
		}
		if len(g) != len(w) {
			return fmt.Errorf("sweep: %s: array length %d, want %d", path, len(g), len(w))
		}
		for i := range w {
			if err := checkNode(fmt.Sprintf("%s[%d]", path, i), g[i], w[i]); err != nil {
				return err
			}
		}
	case float64:
		if _, ok := got.(float64); !ok {
			return fmt.Errorf("sweep: %s: number became %T", path, got)
		}
	case string:
		g, ok := got.(string)
		if !ok {
			return fmt.Errorf("sweep: %s: string became %T", path, got)
		}
		if g != w {
			return fmt.Errorf("sweep: %s: %q, want %q", path, g, w)
		}
	case bool:
		g, ok := got.(bool)
		if !ok {
			return fmt.Errorf("sweep: %s: bool became %T", path, got)
		}
		if g != w {
			return fmt.Errorf("sweep: %s: %v, want %v", path, g, w)
		}
	case nil:
		if got != nil {
			return fmt.Errorf("sweep: %s: null became %T", path, got)
		}
	default:
		return fmt.Errorf("sweep: %s: unhandled node %T", path, want)
	}
	return nil
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //lint:allow det-maprange keys sorted immediately below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
