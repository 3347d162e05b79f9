// Package gantt renders activity intervals as an ASCII Gantt chart,
// reproducing the paper's execution figure ("Dark portions denote
// computations, light portions denote communications").
//
// Key invariant: a chart is a view built after the run — of a Paje
// trace (FromTrace: the MSG figure, and any traced run) or of a
// finished DAG's tasks (FromTasks) — so nothing records intervals
// while the simulation runs, and a chart cannot disagree with the
// trace it was rendered from.
package gantt

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/instr"
	"repro/internal/simdag"
)

// Kind classifies an interval.
type Kind int

// Interval kinds. Compute renders dark ('#'), Comm light ('='), Wait
// as receive-idle ('.').
const (
	Compute Kind = iota
	Comm
	Wait
)

func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Comm:
		return "comm"
	case Wait:
		return "wait"
	default:
		return "unknown"
	}
}

// glyph is the fill character used when rendering the kind.
func (k Kind) glyph() byte {
	switch k {
	case Compute:
		return '#'
	case Comm:
		return '='
	case Wait:
		return '.'
	default:
		return '?'
	}
}

// Interval is one activity span on a track (usually one simulated
// process or host per track).
type Interval struct {
	Track string
	Kind  Kind
	Label string
	Start float64
	End   float64
}

// Duration returns End - Start.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// Recorder accumulates intervals. The zero value is ready to use.
type Recorder struct {
	intervals []Interval
}

// traceKinds is the one trace→chart mapping: which (state type, value)
// pairs of a Paje trace have extent on a chart, and as what kind.
// Process activities (PSTATE) keep their compute/put/get kinds, a task's
// running span (TSTATE) counts as computation, resource downtime (STATE
// down) as waiting; markers such as PSTATE "killed" are not listed.
var traceKinds = map[[2]string]Kind{
	{"PSTATE", "compute"}: Compute,
	{"PSTATE", "put"}:     Comm,
	{"PSTATE", "get"}:     Wait,
	{"TSTATE", "running"}: Compute,
	{"STATE", "down"}:     Wait,
}

// FromTrace builds the chart of a decoded Paje trace, one track per
// container, from the state types listed (see traceKinds). A state the
// trace never closed — a daemon still blocked when the run ended — is
// skipped.
func FromTrace(td *instr.TraceData, stateTypes ...string) *Recorder {
	r := &Recorder{}
	for _, iv := range td.Intervals {
		kind, ok := traceKinds[[2]string{iv.Type, iv.Value}]
		if ok && !iv.Open && slices.Contains(stateTypes, iv.Type) {
			r.Add(iv.Container, kind, iv.Value, iv.Start, iv.End)
		}
	}
	return r
}

// FromTasks builds the per-host chart of a finished DAG: every task
// that ran (to completion or to a failure of its own) is one span
// labelled with its name, in finish order — a compute task on its host,
// a transfer on its source host, a parallel task on the first of its
// hosts (by convention). Sequencing tasks and tasks cancelled because a
// dependency failed never ran and have no span.
func FromTasks(tasks []*simdag.Task) *Recorder {
	ran := make([]*simdag.Task, 0, len(tasks))
	for _, t := range tasks {
		terminal := t.State() == simdag.Done || t.State() == simdag.Failed
		if terminal && t.Kind() != simdag.Seq && t.Err() != simdag.ErrDependencyFailed {
			ran = append(ran, t)
		}
	}
	sort.SliceStable(ran, func(i, j int) bool { return ran[i].Finish() < ran[j].Finish() })
	r := &Recorder{}
	for _, t := range ran {
		track, kind := t.Host(), Compute
		switch t.Kind() {
		case simdag.Comm:
			track, _ = t.Endpoints()
			kind = Comm
		case simdag.Parallel:
			track = t.ParallelHosts()[0]
		}
		r.Add(track, kind, t.Name(), t.Start(), t.Finish())
	}
	return r
}

// Add records a closed interval.
func (r *Recorder) Add(track string, kind Kind, label string, start, end float64) {
	if end < start {
		start, end = end, start
	}
	r.intervals = append(r.intervals, Interval{
		Track: track, Kind: kind, Label: label, Start: start, End: end,
	})
}

// Intervals returns a copy of the recorded intervals sorted by track
// then start time.
func (r *Recorder) Intervals() []Interval {
	out := make([]Interval, len(r.intervals))
	copy(out, r.intervals)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out
}

// Tracks returns the distinct track names, sorted.
func (r *Recorder) Tracks() []string {
	seen := map[string]bool{}
	var out []string
	for _, iv := range r.intervals {
		if !seen[iv.Track] {
			seen[iv.Track] = true
			out = append(out, iv.Track)
		}
	}
	sort.Strings(out)
	return out
}

// Span returns the (min start, max end) over all intervals.
func (r *Recorder) Span() (start, end float64) {
	if len(r.intervals) == 0 {
		return 0, 0
	}
	start, end = math.Inf(1), math.Inf(-1)
	for _, iv := range r.intervals {
		if iv.Start < start {
			start = iv.Start
		}
		if iv.End > end {
			end = iv.End
		}
	}
	return start, end
}

// TotalByKind sums interval durations per kind for one track
// (or all tracks when track is "").
func (r *Recorder) TotalByKind(track string) map[Kind]float64 {
	out := make(map[Kind]float64)
	for _, iv := range r.intervals {
		if track != "" && iv.Track != track {
			continue
		}
		out[iv.Kind] += iv.Duration()
	}
	return out
}

// Render writes an ASCII Gantt chart, one row per track, `width`
// columns of timeline. Later intervals overdraw earlier ones; Compute
// overdraws Comm overdraws Wait within the same cell.
func (r *Recorder) Render(w io.Writer, width int) error {
	return r.render(w, width, false)
}

// RenderLabeled is Render with each span carrying its (truncated)
// label text over the fill glyphs — the DAG-view: one row per host,
// task names readable in place.
func (r *Recorder) RenderLabeled(w io.Writer, width int) error {
	return r.render(w, width, true)
}

func (r *Recorder) render(w io.Writer, width int, labeled bool) error {
	if width < 10 {
		width = 10
	}
	start, end := r.Span()
	if end <= start {
		_, err := fmt.Fprintln(w, "(empty gantt)")
		return err
	}
	scale := float64(width) / (end - start)
	tracks := r.Tracks()
	nameW := 0
	for _, tr := range tracks {
		if len(tr) > nameW {
			nameW = len(tr)
		}
	}
	// Kind precedence per cell so thin computations stay visible.
	prec := func(b byte) int {
		switch b {
		case '#':
			return 3
		case '=':
			return 2
		case '.':
			return 1
		default:
			return 0
		}
	}
	for _, tr := range tracks {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, iv := range r.intervals {
			if iv.Track != tr {
				continue
			}
			c0 := int((iv.Start - start) * scale)
			c1 := int(math.Ceil((iv.End - start) * scale))
			if c1 <= c0 {
				c1 = c0 + 1
			}
			if c1 > width {
				c1 = width
			}
			g := iv.Kind.glyph()
			for i := c0; i < c1 && i < width; i++ {
				if prec(g) >= prec(row[i]) {
					row[i] = g
				}
			}
			if labeled && iv.Label != "" && c1-c0 >= 2 {
				// Overlay the label, truncated to the span, leaving the
				// first cell as the kind glyph so the fill stays legible.
				for i, j := c0+1, 0; i < c1-1 && i < width && j < len(iv.Label); i, j = i+1, j+1 {
					row[i] = iv.Label[j]
				}
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", nameW, tr, string(row)); err != nil {
			return err
		}
	}
	// Time axis.
	axis := fmt.Sprintf("%-*s +%s+", nameW, "", strings.Repeat("-", width))
	if _, err := fmt.Fprintln(w, axis); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%-*s  %-*.3g%*.3g\n", nameW, "", width/2, start, width-width/2, end)
	return err
}
