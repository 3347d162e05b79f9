package msg

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/instr"
)

// metric reads one key of the environment's metrics, the kernel's
// core.* counters included.
func metric(t *testing.T, env *Environment, key string) float64 {
	t.Helper()
	r := instr.NewRegistry()
	env.MetricsInto(r)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap[key]
}

// TestEnableTraceOnModelTrace: on a model already tracing to trA,
// EnableTrace(trB) builds the MSG band on trA, where the platform band
// lives. Every PROCESS container there names a parent trA defines, and
// trB holds nothing past its header.
func TestEnableTraceOnModelTrace(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	var bufA, bufB bytes.Buffer
	trA, trB := instr.NewTrace(&bufA), instr.NewTrace(&bufB)
	env.Model().EnableTrace(trA)
	env.EnableTrace(trB)
	env.NewProcess("sender", "client", func(p *Process) error {
		return p.Put(NewTask("m", 0, 1e6), "server", 1)
	})
	env.NewProcess("receiver", "server", func(p *Process) error {
		_, err := p.Get(1)
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if env.Trace() != trA {
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
		if c.Type == "PROCESS" {
			n++
			if !seen[c.Parent] {
				t.Errorf("PROCESS container %q: parent %q undefined", c.Name, c.Parent)
			}
		}
		seen[c.Name] = true
	}
	if n != 2 {
		t.Errorf("model trace carries %d PROCESS containers, want 2", n)
	}
	var header bytes.Buffer
	if err := instr.NewTrace(&header).Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufB.Bytes(), header.Bytes()) {
		t.Errorf("foreign trace carries %d bytes past its header", bufB.Len()-header.Len())
	}
}
