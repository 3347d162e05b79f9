package simdag

import (
	"bytes"
	"strings"
	"testing"
)

const sampleDAX = `<?xml version="1.0" encoding="UTF-8"?>
<adag xmlns="http://pegasus.isi.edu/schema/DAX" version="2.1" name="diamond" jobCount="4">
  <job id="ID0000001" name="preprocess" runtime="2.0">
    <uses file="f.input" link="input" size="1000000"/>
    <uses file="f.a" link="output" size="4000000"/>
    <uses file="f.b" link="output" size="2000000"/>
  </job>
  <job id="ID0000002" name="findrange" runtime="4.0">
    <uses file="f.a" link="input" size="4000000"/>
    <uses file="f.c" link="output" size="1000000"/>
  </job>
  <job id="ID0000003" name="findrange" runtime="4.0">
    <uses file="f.b" link="input" size="2000000"/>
    <uses file="f.d" link="output" size="1000000"/>
  </job>
  <job id="ID0000004" name="analyze" runtime="1.5">
    <uses file="f.c" link="input" size="1000000"/>
    <uses file="f.d" link="input" size="1000000"/>
    <uses file="f.out" link="output" size="500000"/>
  </job>
  <child ref="ID0000002"><parent ref="ID0000001"/></child>
  <child ref="ID0000003"><parent ref="ID0000001"/></child>
  <child ref="ID0000004">
    <parent ref="ID0000002"/>
    <parent ref="ID0000003"/>
  </child>
</adag>`

// TestLoadDAX parses the Pegasus diamond and runs it end-to-end under
// min-min.
func TestLoadDAX(t *testing.T) {
	s := New(starPlatform(t, 4), exactConfig())
	tasks, err := LoadDAX(s, strings.NewReader(sampleDAX))
	if err != nil {
		t.Fatalf("LoadDAX: %v", err)
	}
	// 4 jobs + 4 produced-and-consumed files (f.a, f.b, f.c, f.d) +
	// root + end.
	if len(tasks) != 10 {
		t.Fatalf("loaded %d tasks, want 10", len(tasks))
	}
	var computes, comms, seqs int
	byName := map[string]*Task{}
	for _, task := range tasks {
		byName[task.Name()] = task
		switch task.Kind() {
		case Compute:
			computes++
		case Comm:
			comms++
		case Seq:
			seqs++
		}
	}
	if computes != 4 || comms != 4 || seqs != 2 {
		t.Fatalf("got %d computes, %d comms, %d seqs; want 4/4/2", computes, comms, seqs)
	}
	pre := byName["preprocess_ID0000001"]
	if pre == nil {
		t.Fatal("job task preprocess_ID0000001 missing")
	}
	if pre.Amount() != 2.0*DAXReferenceFlops {
		t.Errorf("runtime conversion: %g flops, want %g", pre.Amount(), 2.0*DAXReferenceFlops)
	}
	// The stage-in file f.input has no producer: no comm task for it.
	for name := range byName {
		if strings.Contains(name, "f.input") {
			t.Errorf("stage-in file got a transfer task %q", name)
		}
	}

	var hosts []string
	for _, h := range s.Platform().Hosts() {
		hosts = append(hosts, h.Name)
	}
	if err := ScheduleMinMin(s, hosts); err != nil {
		t.Fatalf("ScheduleMinMin: %v", err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if s.DoneCount() != len(tasks) {
		t.Fatalf("only %d/%d tasks done", s.DoneCount(), len(tasks))
	}
	// Dependency order must hold through the transfers.
	analyze := byName["analyze_ID0000004"]
	fr2 := byName["findrange_ID0000002"]
	if analyze.Start() < fr2.Finish() {
		t.Errorf("analyze started at %g before findrange finished at %g", analyze.Start(), fr2.Finish())
	}
	if byName["root"].Finish() != 0 {
		t.Errorf("root seq finished at %g, want 0", byName["root"].Finish())
	}
	if end := byName["end"]; !near(end.Finish(), s.Makespan()) {
		t.Errorf("end seq finished at %g, makespan %g", end.Finish(), s.Makespan())
	}
}

// FuzzLoadDAX feeds LoadDAX arbitrary bytes: every input is rejected
// with an error or yields a workflow that min-min places on two hosts
// and Simulate runs to the end, every task done.
func FuzzLoadDAX(f *testing.F) {
	f.Add([]byte(sampleDAX))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := New(starPlatform(t, 2), exactConfig())
		tasks, err := LoadDAX(s, bytes.NewReader(raw))
		if err != nil {
			return
		}
		if err := ScheduleMinMin(s, []string{hostName(0), hostName(1)}); err != nil {
			t.Fatalf("ScheduleMinMin: %v", err)
		}
		if _, err := s.Simulate(); err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		if s.DoneCount() != len(tasks) {
			t.Fatalf("%d of %d tasks done", s.DoneCount(), len(tasks))
		}
	})
}

const sampleDOT = `/* layered workflow */
digraph G {
  node [shape=box];
  root   [size="0"];
  work1  [size="4e9"];
  work2  [size="4e9"];
  merge  [size="1e9"];
  root -> work1;          // control only
  root -> work2
  work1 -> merge [size="8e7"];
  work2 -> merge [size="8e7"];
  # repeated edge must be tolerated
  root -> work1;
}`

// TestLoadDOT parses the DOT subset and runs it.
func TestLoadDOT(t *testing.T) {
	s := New(starPlatform(t, 2), exactConfig())
	tasks, err := LoadDOT(s, strings.NewReader(sampleDOT))
	if err != nil {
		t.Fatalf("LoadDOT: %v", err)
	}
	// 4 nodes + 2 sized edges.
	if len(tasks) != 6 {
		t.Fatalf("loaded %d tasks, want 6", len(tasks))
	}
	byName := map[string]*Task{}
	for _, task := range tasks {
		byName[task.Name()] = task
	}
	if w := byName["work2"]; w == nil || w.Amount() != 4e9 || w.Kind() != Compute {
		t.Fatalf("work2 parsed wrong: %+v", w)
	}
	if c := byName["work1->merge"]; c == nil || c.Kind() != Comm || c.Amount() != 8e7 {
		t.Fatalf("transfer edge parsed wrong: %+v", c)
	}
	if len(byName["merge"].Dependencies()) != 2 {
		t.Errorf("merge has %d deps, want 2", len(byName["merge"].Dependencies()))
	}

	var hosts []string
	for _, h := range s.Platform().Hosts() {
		hosts = append(hosts, h.Name)
	}
	if err := ScheduleMinMin(s, hosts); err != nil {
		t.Fatalf("ScheduleMinMin: %v", err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if s.DoneCount() != len(tasks) {
		t.Fatalf("only %d/%d done", s.DoneCount(), len(tasks))
	}
	// min-min on the 2-host star: with two equal 4 Gflop tasks, the
	// second lands on the slower-but-idle h00 (ECT 4) rather than
	// queueing behind the first on h01 (ECT 2+2): the heuristic spreads.
	if byName["work1"].Host() == byName["work2"].Host() {
		t.Errorf("min-min serialized work1 and work2 on %s", byName["work1"].Host())
	}
}

// FuzzLoadDOT feeds LoadDOT arbitrary bytes: every input is rejected
// with an error or yields a workflow that min-min places on two hosts
// and Simulate runs to the end, every task done.
func FuzzLoadDOT(f *testing.F) {
	f.Add([]byte(sampleDOT))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := New(starPlatform(t, 2), exactConfig())
		tasks, err := LoadDOT(s, bytes.NewReader(raw))
		if err != nil {
			return
		}
		if err := ScheduleMinMin(s, []string{hostName(0), hostName(1)}); err != nil {
			t.Fatalf("ScheduleMinMin: %v", err)
		}
		if _, err := s.Simulate(); err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		if s.DoneCount() != len(tasks) {
			t.Fatalf("%d of %d tasks done", s.DoneCount(), len(tasks))
		}
	})
}

// TestMinMinPrefersFasterHost: a single task must land on the fastest
// host.
func TestMinMinPrefersFasterHost(t *testing.T) {
	s := New(starPlatform(t, 3), exactConfig()) // h02 has power 3e9
	task := s.NewTask("solo", 3e9)
	if err := ScheduleMinMin(s, []string{"h00", "h01", "h02"}); err != nil {
		t.Fatal(err)
	}
	if task.Host() != "h02" {
		t.Errorf("solo placed on %s, want h02 (fastest)", task.Host())
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if !near(task.Finish(), 1) {
		t.Errorf("solo finished at %g, want 1 (3 Gflop on 3 Gflop/s)", task.Finish())
	}
}

// TestMinMinDiamondLattice: a deep lattice of Seq tasks (every node
// depending on both nodes of the previous layer) must schedule in
// polynomial time — regression test for the unmemoized estOf recursion
// going exponential on diamond shapes.
func TestMinMinDiamondLattice(t *testing.T) {
	s := New(starPlatform(t, 2), exactConfig())
	top := s.NewTask("top", 1e9)
	prev := []*Task{top}
	for l := 0; l < 40; l++ {
		var layer []*Task
		for w := 0; w < 2; w++ {
			sq := s.NewSeqTask("lat")
			for _, p := range prev {
				if err := s.AddDependency(p, sq); err != nil {
					t.Fatal(err)
				}
			}
			layer = append(layer, sq)
		}
		prev = layer
	}
	bottom := s.NewTask("bottom", 1e9)
	for _, p := range prev {
		if err := s.AddDependency(p, bottom); err != nil {
			t.Fatal(err)
		}
	}
	if err := ScheduleMinMin(s, []string{"h00", "h01"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if bottom.State() != Done {
		t.Errorf("bottom ended %s, want done", bottom.State())
	}
}

// TestMinMinWithPrePlacedPredecessors: min-min must schedule tasks
// that depend on compute tasks placed outside the call (the
// watch-point reschedule flow) instead of reporting them
// unschedulable.
func TestMinMinWithPrePlacedPredecessors(t *testing.T) {
	s := New(starPlatform(t, 2), exactConfig())
	// first is hand-placed and NOT yet executed: min-min must estimate
	// through it (Schedulable, no committed ECT) rather than treat the
	// dependents as unschedulable.
	first := s.NewTask("first", 1e9)
	if err := first.Schedule("h00"); err != nil {
		t.Fatal(err)
	}
	second := s.NewTask("second", 1e9)
	if err := s.AddDependency(first, second); err != nil {
		t.Fatal(err)
	}
	third := s.NewTask("third", 1e9)
	if err := s.AddDependency(second, third); err != nil {
		t.Fatal(err)
	}
	if err := ScheduleMinMin(s, []string{"h00", "h01"}); err != nil {
		t.Fatalf("ScheduleMinMin with pre-placed predecessor: %v", err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if first.State() != Done || second.State() != Done || third.State() != Done {
		t.Errorf("states first=%s second=%s third=%s, want all done",
			first.State(), second.State(), third.State())
	}
}

// TestRoundRobinSchedules covers the baseline scheduler incl. comm
// placement from neighbours.
func TestRoundRobinSchedules(t *testing.T) {
	s := New(starPlatform(t, 2), exactConfig())
	a := s.NewTask("a", 1e9)
	b := s.NewTask("b", 1e9)
	x := s.NewCommTask("a->b", 1e6)
	if err := s.AddDependency(a, x); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDependency(x, b); err != nil {
		t.Fatal(err)
	}
	if err := ScheduleRoundRobin(s, []string{"h00", "h01"}); err != nil {
		t.Fatal(err)
	}
	if a.Host() != "h00" || b.Host() != "h01" {
		t.Fatalf("round robin placed a=%s b=%s", a.Host(), b.Host())
	}
	src, dst := x.Endpoints()
	if src != "h00" || dst != "h01" {
		t.Fatalf("comm endpoints %s->%s, want h00->h01", src, dst)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if s.DoneCount() != 3 {
		t.Fatalf("only %d/3 done", s.DoneCount())
	}
}
