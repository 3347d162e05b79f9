// Determinism guarantees for the kernel-driven DAG path: a seeded
// workflow produces a bit-identical task-event order on every run.
// (That a same-instant batch of Completion-carrying actions is delivered
// like one-at-a-time completion is pinned where the batching lives:
// surf's TestCompletionBatchEquivalence.)
package simdag

import (
	"bytes"
	"testing"

	"repro/internal/instr"
	"repro/internal/platform"
	"repro/internal/pool/pooltest"
	"repro/internal/surf"
)

// runSeededDAG generates a seeded random workflow on a seeded Waxman
// platform, schedules it with min-min, runs it, and returns its Paje
// trace: every task state transition, at full-precision times, plus the
// platform band.
func runSeededDAG(t *testing.T, seed int64, cfg surf.Config) []byte {
	t.Helper()
	pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(8, seed))
	if err != nil {
		t.Fatal(err)
	}
	s := New(pf, cfg)
	var buf bytes.Buffer
	s.EnableTrace(instr.NewTrace(&buf))
	if _, err := RandomLayered(s, DefaultRandomConfig(6, 25, seed+1)); err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for _, h := range pf.Hosts() {
		hosts = append(hosts, h.Name)
	}
	if err := ScheduleMinMin(s, hosts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if s.FailedCount() != 0 {
		t.Fatalf("%d tasks failed", s.FailedCount())
	}
	for _, task := range s.Tasks() {
		if task.State() != Done {
			t.Fatalf("task %s ended %s", task.Name(), task.State())
		}
	}
	if g := s.Engine().Spawned(); g != 0 {
		t.Fatalf("%d goroutines spawned, want 0", g)
	}
	if err := s.Trace().Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSimDagDeterminism replays the seeded DAG 5× pooled and 5× fresh:
// any nondeterminism in the release sweep, the completion batching or
// the scheduler shows up as diverging trace bytes.
func TestSimDagDeterminism(t *testing.T) {
	const seed = 4242
	ref := pooltest.Replay(t, 5, func() []byte {
		return runSeededDAG(t, seed, surf.DefaultConfig())
	})
	td, err := instr.ReadTrace(bytes.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, iv := range td.Intervals {
		if iv.Type == "TSTATE" && iv.Value == Done.String() {
			done++
		}
	}
	if done == 0 {
		t.Fatal("trace carries no task reaching Done")
	}
}
