package simdag

import (
	"bytes"
	"testing"

	"repro/internal/instr"
)

// TestEnableTraceOnModelTrace: on a model already tracing to trA,
// EnableTrace(trB) builds the task band on trA, where the platform band
// lives. Every TASK container there names a parent trA defines, and trB
// holds nothing past its header.
func TestEnableTraceOnModelTrace(t *testing.T) {
	s := New(starPlatform(t, 2), exactConfig())
	var bufA, bufB bytes.Buffer
	trA, trB := instr.NewTrace(&bufA), instr.NewTrace(&bufB)
	s.Model().EnableTrace(trA)
	s.EnableTrace(trB)
	a, b := s.NewTask("a", 1e9), s.NewTask("b", 1e9)
	if err := s.AddDependency(a, b); err != nil {
		t.Fatal(err)
	}
	if err := ScheduleMinMin(s, []string{hostName(0), hostName(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if s.Trace() != trA {
		t.Error("Trace() is not the model's trace")
	}
	if err := trA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := trB.Close(); err != nil {
		t.Fatal(err)
	}
	td, err := instr.ReadTrace(bytes.NewReader(bufA.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	seen := map[string]bool{}
	n := 0
	for _, c := range td.Containers {
		if c.Type == "TASK" {
			n++
			if !seen[c.Parent] {
				t.Errorf("TASK container %q: parent %q undefined", c.Name, c.Parent)
			}
		}
		seen[c.Name] = true
	}
	if n != 2 {
		t.Errorf("model trace carries %d TASK containers, want 2", n)
	}
	var header bytes.Buffer
	if err := instr.NewTrace(&header).Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufB.Bytes(), header.Bytes()) {
		t.Errorf("foreign trace carries %d bytes past its header", bufB.Len()-header.Len())
	}
}
