package core

import (
	"errors"
	"strings"
	"testing"
)

// TestContainedPanicFailsProcessAlone: with ContainPanics set, a
// panicking process terminates with a *PanicError while the rest of the
// simulation runs to completion, and the panic (value + stack) is
// counted in the engine's contained-panic tally.
func TestContainedPanicFailsProcessAlone(t *testing.T) {
	e := New()
	e.ContainPanics = true
	var survivorDone bool
	bomb := e.Spawn("bomb", nil, func(p *Process) {
		_ = p.Sleep(1)
		panic("boom")
	})
	e.Spawn("survivor", nil, func(p *Process) {
		_ = p.Sleep(5)
		survivorDone = true
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (a contained panic must not abort the run)", err)
	}
	if !survivorDone {
		t.Error("survivor did not run to completion")
	}
	var pe *PanicError
	if !errors.As(bomb.err, &pe) {
		t.Fatalf("bomb.err = %v, want *PanicError", bomb.err)
	}
	if pe.Name != "bomb" || pe.Value != "boom" {
		t.Errorf("PanicError = {%q %v}, want {bomb boom}", pe.Name, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "panic_test.go") {
		t.Errorf("PanicError.Stack does not point at the panic site:\n%s", pe.Stack)
	}
	if e.panics != 1 {
		t.Errorf("engine counted %d contained panics, want 1", e.panics)
	}
}

// TestContainedPanicRunsDefers: the contained panic unwinds the process
// stack, so its defers (resource cleanup) run before termination.
func TestContainedPanicRunsDefers(t *testing.T) {
	e := New()
	e.ContainPanics = true
	deferRan := false
	var exitErr error
	p := e.Spawn("bomb", nil, func(p *Process) {
		defer func() { deferRan = true }()
		panic(42)
	})
	p.OnExit(func(err error) { exitErr = err })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !deferRan {
		t.Error("defer did not run on the contained unwind")
	}
	var pe *PanicError
	if !errors.As(exitErr, &pe) || pe.Value != 42 {
		t.Errorf("OnExit error = %v, want *PanicError with value 42", exitErr)
	}
}

// TestKernelPhasePanicStaysFatal: a panic escaping a timer callback (a
// kernel phase) leaves the engine mid-turn; even with ContainPanics set
// it must abort the run, not be attributed to the carrier process.
func TestKernelPhasePanicStaysFatal(t *testing.T) {
	e := New()
	e.ContainPanics = true
	e.After(1, func() { panic("kernel bug") })
	carrier := e.Spawn("carrier", nil, func(p *Process) {
		_ = p.Sleep(10)
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kernel bug") {
		t.Fatalf("Run = %v, want fatal kernel-phase panic", err)
	}
	var pe *PanicError
	if errors.As(carrier.err, &pe) {
		t.Errorf("kernel-phase panic was attributed to the carrier process: %v", pe)
	}
	if e.panics != 0 {
		t.Errorf("kernel-phase panic was contained: %d counted", e.panics)
	}
}

// TestPanicWithoutContainmentStillFatal pins the default: containment
// is opt-in, a process panic aborts Run (as TestProcessPanicSurfacesAsError
// also checks) and is not collected.
func TestPanicWithoutContainmentStillFatal(t *testing.T) {
	e := New()
	e.Spawn("bomb", nil, func(p *Process) { panic("boom") })
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run = %v, want *PanicError", err)
	}
	if e.panics != 0 {
		t.Errorf("fatal panic must not be counted as contained: %d counted", e.panics)
	}
}

// TestKernelPhasePanicUnderRunUntilIdle: a timer panic on an engine
// with no process is returned by RunUntilIdle as the run's
// *PanicError, the way Run reports one, instead of escaping as a raw
// panic.
func TestKernelPhasePanicUnderRunUntilIdle(t *testing.T) {
	e := New()
	e.After(1, func() { panic("kernel bug") })
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("RunUntilIdle panicked: %v", r)
			}
		}()
		err = e.RunUntilIdle()
	}()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kernel bug" || pe.PID != 0 {
		t.Fatalf("RunUntilIdle = %v, want the timer's kernel-phase *PanicError", err)
	}
}
