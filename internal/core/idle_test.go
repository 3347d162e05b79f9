// Tests for the processless drive loop (RunUntilIdle), the Stop
// watch-point hook, and re-armable timers — the kernel surface the
// simdag subsystem runs on.
package core

import (
	"math"
	"testing"
)

// seqModel completes one "action" per entry of completeAts, in order,
// invoking onComplete with the index — a pure kernel-level activity
// stream with no process attached.
type seqModel struct {
	completeAts []float64
	next        int
	onComplete  func(i int)
}

func (m *seqModel) NextEventTime(now float64) float64 {
	if m.next >= len(m.completeAts) {
		return math.Inf(1)
	}
	return m.completeAts[m.next]
}

func (m *seqModel) Quiet() bool { return false }

func (m *seqModel) AdvanceTo(now, t float64) {
	for m.next < len(m.completeAts) && m.completeAts[m.next] <= t {
		i := m.next
		m.next++
		m.onComplete(i)
	}
}

func TestRunUntilIdleNoProcesses(t *testing.T) {
	e := New()
	var completed []float64
	m := &seqModel{completeAts: []float64{1, 3, 7}}
	m.onComplete = func(i int) { completed = append(completed, e.Now()) }
	e.SetModel(m)
	var timerAt float64
	e.At(5, func() { timerAt = e.Now() })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if e.Spawned() != 0 {
		t.Errorf("Spawned() = %d, want 0", e.Spawned())
	}
	if len(completed) != 3 || completed[2] != 7 {
		t.Errorf("completions at %v, want [1 3 7]", completed)
	}
	if timerAt != 5 {
		t.Errorf("timer fired at %g, want 5", timerAt)
	}
	if e.Now() != 7 {
		t.Errorf("clock at %g, want 7", e.Now())
	}
}

// TestRunUntilIdleStopResume pins the watch-point contract: Stop from a
// completion callback returns control once the instant has settled, and
// a later RunUntilIdle resumes with nothing lost.
func TestRunUntilIdleStopResume(t *testing.T) {
	e := New()
	var completed []int
	m := &seqModel{completeAts: []float64{1, 2, 4}}
	m.onComplete = func(i int) {
		completed = append(completed, i)
		if i == 1 {
			e.Stop() // watch point on the second completion
		}
	}
	e.SetModel(m)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatalf("first RunUntilIdle: %v", err)
	}
	if len(completed) != 2 || e.Now() != 2 {
		t.Fatalf("stopped with completions %v at t=%g, want [0 1] at 2", completed, e.Now())
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatalf("second RunUntilIdle: %v", err)
	}
	if len(completed) != 3 || e.Now() != 4 {
		t.Errorf("resumed run ended with %v at t=%g, want [0 1 2] at 4", completed, e.Now())
	}
}

// TestRunUntilIdleDispatchesProcesses checks the idle drive still
// schedules processes that wake mid-run (mixed kernel/process use), and
// that quiescence with a blocked process is not an error: the caller
// owns completeness.
func TestRunUntilIdleDispatchesProcesses(t *testing.T) {
	e := New()
	var sleptUntil float64
	e.Spawn("sleeper", nil, func(p *Process) {
		p.Sleep(3)
		sleptUntil = e.Now()
		p.BlockOn(SimcallWait) // parks forever: idle drive must still end cleanly
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if sleptUntil != 3 {
		t.Errorf("process resumed at %g, want 3", sleptUntil)
	}
	if e.Now() != 3 {
		t.Errorf("clock at %g, want 3", e.Now())
	}
	// Release the parked goroutine.
	e.procs[1].Kill()
	_ = e.RunUntilIdle()
}

func TestRunUntilIdleStopAtHorizon(t *testing.T) {
	e := New()
	m := &seqModel{completeAts: []float64{10}}
	m.onComplete = func(int) {}
	e.SetModel(m)
	e.At(4, e.Stop)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if e.Now() != 4 {
		t.Errorf("clock at %g, want the Stop at 4", e.Now())
	}
	if m.next != 0 {
		t.Errorf("completion beyond the Stop fired")
	}
}

// TestTimerRearm drives one timer through fire → Rearm cycles and a
// pending move, the pattern the trace re-arm loop relies on.
func TestTimerRearm(t *testing.T) {
	e := New()
	var fired []float64
	var tm *Timer
	count := 0
	tm = e.At(1, func() {
		fired = append(fired, e.Now())
		count++
		if count < 3 {
			tm.Rearm(e.Now() + 2)
		}
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	want := []float64{1, 3, 5}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}

	// Rearm a pending timer: it must move, not fire twice.
	e2 := New()
	var at []float64
	var tm2 *Timer
	tm2 = e2.At(10, func() { at = append(at, e2.Now()) })
	e2.At(1, func() { tm2.Rearm(2) })
	if err := e2.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(at) != 1 || at[0] != 2 {
		t.Errorf("moved timer fired at %v, want [2]", at)
	}

	// Rearm a canceled-but-pending timer: it revives at the new time.
	e3 := New()
	var at3 []float64
	var tm3 *Timer
	tm3 = e3.At(10, func() { at3 = append(at3, e3.Now()) })
	e3.At(1, func() { tm3.Cancel(); tm3.Rearm(3) })
	if err := e3.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(at3) != 1 || at3[0] != 3 {
		t.Errorf("revived timer fired at %v, want [3]", at3)
	}
}
