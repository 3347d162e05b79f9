package core

import (
	"runtime"
	"strings"
	"testing"
)

// callStack returns the calling goroutine's stack.
func callStack() string {
	buf := make([]byte, 64<<10)
	return string(buf[:runtime.Stack(buf, false)])
}

// TestKernelTurnOffProcessStacks pins where the kernel runs: a timer
// callback fires on the drive loop's stack, never on the coroutine of
// the process whose park ended the round.
func TestKernelTurnOffProcessStacks(t *testing.T) {
	e := New()
	var stack string
	e.At(0.5, func() { stack = callStack() })
	e.Spawn("sleeper", nil, func(p *Process) { _ = p.Sleep(1) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stack == "" {
		t.Fatal("the timer never fired")
	}
	if strings.Contains(stack, "runProcessBody") {
		t.Errorf("timer callback ran on a process stack:\n%s", stack)
	}
	if !strings.Contains(stack, "drive") {
		t.Errorf("timer callback did not run under Engine.drive:\n%s", stack)
	}
}
