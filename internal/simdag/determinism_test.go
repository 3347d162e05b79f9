// Determinism guarantees for the kernel-driven DAG path: a seeded
// workflow produces a bit-identical task-event order on every run.
// (That a same-instant batch of Completion-carrying actions is delivered
// like one-at-a-time completion is pinned where the batching lives:
// surf's TestCompletionBatchEquivalence.)
package simdag

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/pool/pooltest"
	"repro/internal/surf"
)

// runSeededDAG generates a seeded random workflow on a seeded Waxman
// platform, schedules it with min-min, runs it, and returns the
// state-transition log.
func runSeededDAG(t *testing.T, seed int64, cfg surf.Config) []string {
	t.Helper()
	pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(8, seed))
	if err != nil {
		t.Fatal(err)
	}
	s := New(pf, cfg)
	var log []string
	s.OnTaskStateChange = func(task *Task) {
		log = append(log, fmt.Sprintf("%.9e %s %s", s.Now(), task.Name(), task.State()))
	}
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
	return log
}

// TestSimDagDeterminism replays the seeded DAG 5× pooled and 5× fresh:
// any nondeterminism in the release sweep, the completion batching or
// the scheduler shows up as a diverging event log.
func TestSimDagDeterminism(t *testing.T) {
	const seed = 4242
	ref := pooltest.Replay(t, 5, func() []byte {
		return []byte(strings.Join(runSeededDAG(t, seed, surf.DefaultConfig()), "\n"))
	})
	if len(ref) == 0 {
		t.Fatal("empty event log")
	}
}
