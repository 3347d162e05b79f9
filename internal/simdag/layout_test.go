package simdag

// Tests of the Task layout: the arena block a campaign DAG fills, the
// accessors that read the shared placement slots, and the trace band's
// container aliases, which live beside the tasks instead of in them.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/instr"
)

// arenaBlocks counts the arena blocks s's tasks occupy: a new block
// starts wherever a task does not sit right after its predecessor.
func arenaBlocks(s *Simulation) int {
	n := 0
	for i, t := range s.tasks {
		if i == 0 || uintptr(unsafe.Pointer(t)) != uintptr(unsafe.Pointer(s.tasks[i-1]))+unsafe.Sizeof(Task{}) {
			n++
		}
	}
	return n
}

// TestCampaignDAGFitsOneBlock: a campaign-shaped DAG (20 layers of 40,
// a tenth of them two-slot ptasks, as sweep_campaign draws them) fits
// in one 320 KiB arena block whatever its seed, and one task past a
// block opens a second. The generated names are pinned too: l<L>t<W>
// for a compute, l<L>p<W> for a ptask, <from>-><to> for a comm.
func TestCampaignDAGFitsOneBlock(t *testing.T) {
	if got := uintptr(taskBlockSize) * unsafe.Sizeof(Task{}); got > 320<<10 || got+unsafe.Sizeof(Task{}) <= 320<<10 {
		t.Fatalf("a block of %d tasks holds %d bytes, want the most that fit in 320 KiB", taskBlockSize, got)
	}
	for seed := int64(1); seed <= 16; seed++ {
		s := New(starPlatform(t, 4), exactConfig())
		cfg := DefaultRandomConfig(20, 40, seed)
		cfg.PtaskProb, cfg.PtaskSlots = 0.1, 2
		tasks, err := RandomLayered(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		member := 0 // computes and ptasks, layer by layer
		for _, x := range tasks {
			var want string
			if x.kind == Comm {
				want = x.pred0.name + "->" + x.succ0.name
			} else {
				l, w := strconv.Itoa(member/cfg.Width), strconv.Itoa(member%cfg.Width)
				want = "l" + l + map[Kind]string{Compute: "t", Parallel: "p"}[x.kind] + w
				member++
			}
			if x.name != want {
				t.Fatalf("seed %d: %s task named %q, want %q", seed, x.kind, x.name, want)
			}
		}
		if got := arenaBlocks(s); got != 1 {
			t.Errorf("seed %d: %d tasks span %d arena blocks, want 1", seed, len(s.tasks), got)
		}
	}
	s := New(starPlatform(t, 1), exactConfig())
	for i := 0; i < int(taskBlockSize)+1; i++ {
		s.NewSeqTask("q")
	}
	if got := arenaBlocks(s); got != 2 {
		t.Errorf("%d tasks span %d arena blocks, want 2", len(s.tasks), got)
	}
}

// TestPlacementAccessorsByKind: a compute's host and a comm's endpoints
// share one slot pair and a ptask's payload sits behind a pointer, yet
// each accessor answers only for its own kind, before and after
// placement.
func TestPlacementAccessorsByKind(t *testing.T) {
	s := New(starPlatform(t, 3), exactConfig())
	c, m, q := s.NewTask("c", 1e9), s.NewCommTask("m", 1e6), s.NewSeqTask("q")
	p, err := s.NewParallelTask("p", []float64{1e9, 1e9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(phase string, x *Task, host, src, dst string, slots int, phosts []string) {
		t.Helper()
		gs, gd := x.Endpoints()
		if x.Host() != host || gs != src || gd != dst || x.Slots() != slots ||
			!slices.Equal(x.ParallelHosts(), phosts) || (phosts == nil) != (x.ParallelHosts() == nil) {
			t.Errorf("%s %s: Host %q Endpoints %q,%q Slots %d ParallelHosts %#v; want %q %q,%q %d %#v",
				phase, x.kind, x.Host(), gs, gd, x.Slots(), x.ParallelHosts(), host, src, dst, slots, phosts)
		}
	}
	for _, x := range []*Task{c, m, q} {
		check("unplaced", x, "", "", "", 0, nil)
	}
	check("unplaced", p, "", "", "", 2, nil)
	h0, h1, h2 := hostName(0), hostName(1), hostName(2)
	if err := c.Schedule(h0); err != nil {
		t.Fatal(err)
	}
	if err := m.ScheduleComm(h1, h2); err != nil {
		t.Fatal(err)
	}
	if err := p.ScheduleParallel([]string{h2, h1}); err != nil {
		t.Fatal(err)
	}
	check("placed", c, h0, "", "", 0, nil)
	check("placed", m, "", h1, h2, 0, nil)
	check("placed", q, "", "", "", 0, nil)
	check("placed", p, "", "", "", 2, []string{h2, h1})
	for _, x := range []*Task{c, m, p} {
		x.unschedule()
	}
	check("unscheduled", c, "", "", "", 0, nil)
	check("unscheduled", m, "", "", "", 0, nil)
	check("unscheduled", p, "", "", "", 2, []string{})
}

// tracedResume runs a DAG of every kind in two Simulate calls split by a
// watch point, adding one task between them, and returns its Paje
// bytes. The trace is enabled at the given point: "build" before the
// first task exists, "placed" once every task is scheduled, "resumed"
// between the two calls.
func tracedResume(t *testing.T, when string) []byte {
	t.Helper()
	s := New(starPlatform(t, 3), exactConfig())
	var buf bytes.Buffer
	tr := instr.NewTrace(&buf)
	if when == "build" {
		s.EnableTrace(tr)
	}
	h0, h1, h2 := hostName(0), hostName(1), hostName(2)
	a, b, c := s.NewTask("a", 1e9), s.NewTask("b", 2e9), s.NewTask("c", 1e9)
	ab, join := s.NewCommTask("a->b", 5e7), s.NewSeqTask("join")
	p, err := s.NewParallelTask("p", []float64{1e9, 2e9}, [][]float64{{0, 1e7}, {2e7, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]*Task{{a, ab}, {ab, b}, {a, c}, {b, join}, {c, join}, {join, p}} {
		if err := s.AddDependency(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range []error{a.Schedule(h0), b.Schedule(h1), c.Schedule(h2),
		ab.ScheduleComm(h0, h1), p.ScheduleParallel([]string{h1, h2})} {
		if err != nil {
			t.Fatal(err)
		}
	}
	c.Watch()
	if when == "placed" {
		s.EnableTrace(tr)
	}
	if hits, err := s.Simulate(); err != nil || len(hits) != 1 || hits[0] != c {
		t.Fatalf("first Simulate = %v, %v; want the watch point c", hits, err)
	}
	if when == "resumed" {
		s.EnableTrace(tr)
	}
	late := s.NewTask("late", 1e9)
	if err := s.AddDependency(c, late); err != nil {
		t.Fatal(err)
	}
	if err := late.Schedule(h2); err != nil {
		t.Fatal(err)
	}
	if hits, err := s.Simulate(); err != nil || len(hits) != 0 {
		t.Fatalf("second Simulate = %v, %v; want a drained run", hits, err)
	}
	if s.DoneCount() != 7 {
		t.Fatalf("%d tasks done, want 7", s.DoneCount())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTracedResumeBytes pins the Paje bytes of tracedResume for each
// point the trace is enabled at to what the band wrote when each task
// held its own container alias.
func TestTracedResumeBytes(t *testing.T) {
	for _, c := range []struct{ when, want string }{
		{"build", "c7cd784d58adc648bb27a7b41dbd036e73e2e11b794274e980b55e8b32c03676"},
		{"placed", "c7cd784d58adc648bb27a7b41dbd036e73e2e11b794274e980b55e8b32c03676"},
		{"resumed", "14c04a1495067a553a90e1ac8667a4746a9c165455bd331f74200ac70cdc07fd"},
	} {
		raw := tracedResume(t, c.when)
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("trace enabled at %s: Paje sha256 %s, want %s", c.when, got, c.want)
		}
		if _, err := instr.ReadTrace(bytes.NewReader(raw)); err != nil {
			t.Errorf("trace enabled at %s: ReadTrace: %v", c.when, err)
		}
	}
}
