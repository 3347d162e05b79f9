// TestTraceDeterminism pins the observability contract: with tracing
// enabled, the Paje trace bytes are a pure function of the run — five
// executions of the seeded backbone workload (the TestDeterminism
// platform) produce bit-identical output, with pooling on and with it
// off (pooltest.Replay). TestDisabledHooksAllocFree pins the other half
// of the contract: the disabled-instrumentation surface (nil trace,
// nil profiler, nil registry) allocates nothing, so a run that
// never calls EnableTrace pays pointer tests only.
package simgrid

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/instr"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/pool/pooltest"
	"repro/internal/surf"
)

// runTracedWorkload runs the determinism workload with tracing enabled
// and returns the trace bytes.
func runTracedWorkload(t *testing.T, nPairs, rounds int, seed int64) []byte {
	t.Helper()
	_, raw, err := tracedBackbone(determinismPlatform(t, nPairs), nPairs, rounds, seed)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// tracedBackbone runs the determinism workload on pf with tracing
// enabled and returns the finished environment and the trace bytes.
// It reports failure as an error, so it may run off the test goroutine.
func tracedBackbone(pf *platform.Platform, nPairs, rounds int, seed int64) (*msg.Environment, []byte, error) {
	rng := rand.New(rand.NewSource(seed))
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	var buf bytes.Buffer
	env.EnableTrace(instr.NewTrace(&buf))
	const channel = 7
	for i := 0; i < nPairs; i++ {
		i := i
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		bytes := 1e4 * (1 + rng.Float64()*9)
		flops := 1e5 * (1 + rng.Float64()*9)
		sleep := rng.Float64() * 1e-3
		if i%3 == 0 { // a third of the pairs complete in lockstep
			bytes, flops, sleep = 5e4, 5e5, 0
		}
		if _, err := env.NewProcess("recv", dst, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if _, err := p.Get(channel); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		if _, err := env.NewProcess("send", src, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if sleep > 0 {
					if err := p.Sleep(sleep); err != nil {
						return err
					}
				}
				if err := p.Put(msg.NewTask(fmt.Sprintf("t%d", i), 0, bytes), dst, channel); err != nil {
					return err
				}
				if err := p.Execute(msg.NewTask("c", flops, 0)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}
	if err := env.Run(); err != nil {
		return nil, nil, fmt.Errorf("Run: %w", err)
	}
	if err := env.Trace().Close(); err != nil {
		return nil, nil, fmt.Errorf("closing trace: %w", err)
	}
	return env, buf.Bytes(), nil
}

func TestTraceDeterminism(t *testing.T) {
	const nPairs, rounds, seed = 20, 5, 12345
	ref := pooltest.Replay(t, 5, func() []byte { return runTracedWorkload(t, nPairs, rounds, seed) })
	if len(ref) == 0 {
		t.Fatal("empty trace")
	}

	// The bytes must also decode: every band's events round-trip
	// through the reader the ganttgen -paje path uses.
	td, err := instr.ReadTrace(bytes.NewReader(ref))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	wantConts := 1 + 2*nPairs + 2*nPairs + 1 + 2*nPairs // root + hosts + up/down links + backbone + processes
	if len(td.Containers) != wantConts {
		t.Errorf("trace has %d containers, want %d", len(td.Containers), wantConts)
	}
	if len(td.Links) != nPairs*rounds {
		t.Errorf("trace has %d message links, want %d", len(td.Links), nPairs*rounds)
	}
	if len(td.Intervals) == 0 {
		t.Error("trace has no state intervals")
	}
	if td.EndTime <= 0 {
		t.Errorf("trace end time %g, want > 0", td.EndTime)
	}
}

// TestConcurrentTraces runs the traced workload in four goroutines at
// once. Each trace must equal a sequential run's byte for byte: two
// traced simulations share no mutable state.
func TestConcurrentTraces(t *testing.T) {
	const nPairs, rounds, seed, n = 20, 5, 12345, 4
	ref := runTracedWorkload(t, nPairs, rounds, seed)
	pfs := make([]*platform.Platform, n)
	for i := range pfs {
		pfs[i] = determinismPlatform(t, nPairs)
	}
	got := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range pfs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, got[i], errs[i] = tracedBackbone(pfs[i], nPairs, rounds, seed)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], ref) {
			t.Errorf("goroutine %d: trace differs from the sequential run", i)
		}
	}
}

// TestDisabledHooksAllocFree pins that the whole disabled-mode
// instrumentation surface — the calls a run makes when tracing,
// metrics, and profiling are all off — performs zero allocations, so
// hot kernel paths pay only nil tests.
func TestDisabledHooksAllocFree(t *testing.T) {
	pf := determinismPlatform(t, 2)
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	var nilReg *instr.Registry
	var nilProf *instr.Profiler
	var nilTrace *instr.Trace
	allocs := testing.AllocsPerRun(200, func() {
		// The layer-level collection entry points with metrics off.
		env.MetricsInto(nil)
		// The per-phase profiler hooks with profiling off.
		t0 := nilProf.Begin()
		nilProf.End(instr.PhaseSolve, t0)
		// The registry and trace a disabled run never populates.
		nilReg.Add("x", 1)
		nilReg.Set("x", 1)
		nilReg.Max("x", 2)
		nilTrace.SetState(0, "t0", "c0", "v")
		if env.Trace() != nil {
			t.Error("trace should be nil")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation hooks allocate: %.1f allocs/run, want 0", allocs)
	}
}
