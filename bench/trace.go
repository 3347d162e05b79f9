package main

import (
	"bytes"
	"encoding/json"
	"time"

	"repro/internal/instr"
)

// span is one timed interval of the traced repetition. Spans of one
// workload share its name; Parent is the id of the enclosing span, -1
// for a root. Times are nanoseconds since the benchmark started.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Calls is set on a kernel-phase span: it is not one interval but
	// the engine profiler's total over that many timed phases, laid out
	// from its parent's start so that durations still add up.
	Calls uint64 `json:"calls,omitempty"`
}

func (s *span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// The kernel's four profiled phases under the names of the layers that
// do the work in them: NextEventTime is where the lazy maxmin solve
// runs, AdvanceTo is surf completing due actions.
var phaseSpans = [...]struct {
	ph   instr.Phase
	name string
}{
	{instr.PhaseSolve, "maxmin.solve"},
	{instr.PhaseAdvance, "surf.advance"},
	{instr.PhaseSweep, "core.timers"},
	{instr.PhaseDispatch, "core.dispatch"},
}

// tracer records the traced repetition of one workload: spans around
// the benchmark's calls into each layer, kept in memory, and the
// registry the layers dump their counters into. A nil tracer records
// nothing, so untraced repetitions run the same code.
type tracer struct {
	workload string
	epoch    time.Time
	firstID  int
	spans    []span
	open     []int // stack of open span indexes
	reg      *instr.Registry
}

func newTracer(workload string, epoch time.Time, firstID int) *tracer {
	return &tracer{workload: workload, epoch: epoch, firstID: firstID, reg: instr.NewRegistry()}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.firstID + t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{
		ID: t.firstID + i, Name: name, Parent: parent, Workload: t.workload,
		StartNs: time.Since(t.epoch).Nanoseconds(),
	})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndNs = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// addPhases hangs an engine profiler's phase totals under the span
// currently open, the one around that engine's run.
func (t *tracer) addPhases(p *instr.Profiler) {
	parent := &t.spans[t.open[len(t.open)-1]]
	for _, ps := range phaseSpans {
		t.spans = append(t.spans, span{
			ID: t.firstID + len(t.spans), Name: ps.name, Parent: parent.ID, Workload: t.workload,
			StartNs: parent.StartNs, EndNs: parent.StartNs + p.Total(ps.ph).Nanoseconds(),
			Calls: p.Count(ps.ph),
		})
	}
}

// total is the summed duration of the spans called name, in seconds.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for i := range t.spans {
		if t.spans[i].Name == name {
			sum += t.spans[i].seconds()
		}
	}
	return sum
}

// count is the number of spans called name.
func (t *tracer) count(name string) int {
	n := 0
	for i := range t.spans {
		if t.spans[i].Name == name {
			n++
		}
	}
	return n
}

// counters reads the registry back as name → value.
func (t *tracer) counters() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := t.reg.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var m map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		return nil, err
	}
	return m, nil
}
