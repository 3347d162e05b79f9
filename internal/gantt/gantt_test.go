package gantt

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/instr"
	"repro/internal/platform"
	"repro/internal/simdag"
	"repro/internal/surf"
)

func TestAddAndIntervals(t *testing.T) {
	var r Recorder
	r.Add("b", Comm, "x", 1, 2)
	r.Add("a", Compute, "y", 0, 1)
	r.Add("a", Wait, "z", 1, 3)
	ivs := r.Intervals()
	if len(ivs) != 3 {
		t.Fatalf("got %d intervals", len(ivs))
	}
	// Sorted by track then start.
	if ivs[0].Track != "a" || ivs[0].Start != 0 || ivs[2].Track != "b" {
		t.Errorf("sort order wrong: %+v", ivs)
	}
	if ivs[0].Duration() != 1 {
		t.Errorf("duration = %g", ivs[0].Duration())
	}
}

func TestAddSwapsReversedBounds(t *testing.T) {
	var r Recorder
	r.Add("a", Compute, "", 5, 2)
	iv := r.Intervals()[0]
	if iv.Start != 2 || iv.End != 5 {
		t.Errorf("bounds not normalized: %+v", iv)
	}
}

// TestFromTrace renders a hand-written trace: process activities keep
// their kinds, the killed marker and a state the trace never closed are
// skipped, and only the requested state types are charted.
func TestFromTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := instr.NewTrace(&buf)
	host := tr.DefineContainerType("0", "HOST")
	proc := tr.DefineContainerType(host, "PROCESS")
	state := tr.DefineStateType(host, "STATE")
	pstate := tr.DefineStateType(proc, "PSTATE")
	h := tr.CreateContainer(0, host, "0", "h")
	p := tr.CreateContainer(0, proc, h, "p")
	d := tr.CreateContainer(0, proc, h, "daemon")
	tr.PushState(0, pstate, p, "compute")
	tr.PushState(0.5, pstate, d, "get") // still blocked when the trace ends
	tr.PopState(1, pstate, p)
	tr.PushState(1, pstate, p, "put")
	tr.SetState(2, state, h, "down")
	tr.PopState(3, pstate, p)
	tr.PushState(3, pstate, p, "get")
	tr.SetState(4, state, h, "up")
	tr.PopState(4, pstate, p)
	tr.SetState(4, pstate, p, "killed")
	tr.DestroyContainer(4, proc, p)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	td, err := instr.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []Interval{
		{Track: "p", Kind: Compute, Label: "compute", Start: 0, End: 1},
		{Track: "p", Kind: Comm, Label: "put", Start: 1, End: 3},
		{Track: "p", Kind: Wait, Label: "get", Start: 3, End: 4},
	}
	got := FromTrace(td, "PSTATE").Intervals()
	if len(got) != len(want) {
		t.Fatalf("PSTATE chart = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	all := FromTrace(td, "PSTATE", "STATE").Intervals()
	if len(all) != 4 || all[0] != (Interval{Track: "h", Kind: Wait, Label: "down", Start: 2, End: 4}) {
		t.Errorf("PSTATE+STATE chart = %+v, want the host's downtime first", all)
	}
}

// TestFromTasks charts a finished DAG: spans in finish order on the
// conventional track of each task kind; tasks that never ran have none.
func TestFromTasks(t *testing.T) {
	pf := platform.New()
	for _, n := range []string{"a", "b"} {
		if err := pf.AddHost(&platform.Host{Name: n, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	l := &platform.Link{Name: "l", Bandwidth: 1e8, Latency: 0}
	if err := pf.AddRoute("a", "b", []*platform.Link{l}); err != nil {
		t.Fatal(err)
	}
	sim := simdag.New(pf, surf.Config{BandwidthFactor: 1, LatencyFactor: 1})
	first := sim.NewTask("first", 1e9)
	xfer := sim.NewCommTask("xfer", 1e8)
	join := sim.NewSeqTask("join")
	second := sim.NewTask("second", 2e9)
	for _, dep := range [][2]*simdag.Task{{first, xfer}, {xfer, join}, {join, second}} {
		if err := sim.AddDependency(dep[0], dep[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.Schedule("a"); err != nil {
		t.Fatal(err)
	}
	if err := xfer.ScheduleComm("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := second.Schedule("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Simulate(); err != nil {
		t.Fatal(err)
	}
	// Tasks() order is creation order; shuffle the input to show the
	// chart is ordered by finish time, not by argument order.
	tasks := []*simdag.Task{second, join, xfer, first}
	r := FromTasks(tasks)
	want := []Interval{
		{Track: "a", Kind: Compute, Label: "first", Start: 0, End: 1},
		{Track: "a", Kind: Comm, Label: "xfer", Start: 1, End: 2},
		{Track: "b", Kind: Compute, Label: "second", Start: 2, End: 4},
	}
	if len(r.intervals) != len(want) {
		t.Fatalf("chart = %+v, want %+v", r.intervals, want)
	}
	for i := range want {
		if r.intervals[i] != want[i] {
			t.Errorf("interval %d = %+v, want %+v", i, r.intervals[i], want[i])
		}
	}
}

func TestTracksAndSpan(t *testing.T) {
	var r Recorder
	r.Add("z", Comm, "", 1, 4)
	r.Add("a", Compute, "", 0.5, 2)
	tracks := r.Tracks()
	if len(tracks) != 2 || tracks[0] != "a" || tracks[1] != "z" {
		t.Errorf("tracks = %v", tracks)
	}
	s, e := r.Span()
	if s != 0.5 || e != 4 {
		t.Errorf("span = %g..%g", s, e)
	}
}

func TestEmptySpan(t *testing.T) {
	var r Recorder
	s, e := r.Span()
	if s != 0 || e != 0 {
		t.Errorf("empty span = %g..%g", s, e)
	}
}

func TestTotalByKind(t *testing.T) {
	var r Recorder
	r.Add("a", Compute, "", 0, 2)
	r.Add("a", Comm, "", 2, 3)
	r.Add("b", Compute, "", 0, 5)
	tot := r.TotalByKind("a")
	if tot[Compute] != 2 || tot[Comm] != 1 {
		t.Errorf("per-track totals = %v", tot)
	}
	all := r.TotalByKind("")
	if all[Compute] != 7 {
		t.Errorf("global compute = %g, want 7", all[Compute])
	}
}

func TestRender(t *testing.T) {
	var r Recorder
	r.Add("client", Compute, "", 0, 5)
	r.Add("client", Comm, "", 5, 10)
	r.Add("server", Wait, "", 0, 5)
	r.Add("server", Compute, "", 5, 10)
	var buf bytes.Buffer
	if err := r.Render(&buf, 20); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "client") || !strings.Contains(out, "server") {
		t.Errorf("missing tracks:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "=") || !strings.Contains(out, ".") {
		t.Errorf("missing glyphs:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // 2 tracks + axis + labels
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Client row: first half compute, second half comm.
	clientRow := lines[0]
	if !strings.Contains(clientRow, "##########") {
		t.Errorf("client compute half missing: %q", clientRow)
	}
	if !strings.Contains(clientRow, "==========") {
		t.Errorf("client comm half missing: %q", clientRow)
	}
}

func TestRenderEmpty(t *testing.T) {
	var r Recorder
	var buf bytes.Buffer
	if err := r.Render(&buf, 30); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Errorf("empty chart output: %q", buf.String())
	}
}

func TestRenderTinyIntervalVisible(t *testing.T) {
	var r Recorder
	r.Add("p", Comm, "", 0, 100)
	r.Add("p", Compute, "", 50, 50.001) // sub-pixel computation
	var buf bytes.Buffer
	if err := r.Render(&buf, 40); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "#") {
		t.Error("tiny interval invisible")
	}
}

func TestRenderMinWidth(t *testing.T) {
	var r Recorder
	r.Add("p", Compute, "", 0, 1)
	var buf bytes.Buffer
	if err := r.Render(&buf, 1); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if len(buf.String()) == 0 {
		t.Error("no output")
	}
}

func TestKindStrings(t *testing.T) {
	if Compute.String() != "compute" || Comm.String() != "comm" ||
		Wait.String() != "wait" || Kind(7).String() != "unknown" {
		t.Error("kind strings wrong")
	}
}
