// TestTraceDeterminism pins the observability contract: with tracing
// enabled, the Paje trace bytes are a pure function of the run — five
// executions of the seeded backbone workload (the TestDeterminism
// platform) produce bit-identical output, with pooling on and with it
// off (pooltest.Replay). TestDisabledHooksAllocFree pins the other half
// of the contract: the disabled-instrumentation surface (nil trace,
// nil profiler, nil registry handles) allocates nothing, so a run that
// never calls EnableTrace pays pointer tests only.
package simgrid

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/instr"
	"repro/internal/msg"
	"repro/internal/pool/pooltest"
	"repro/internal/surf"
)

// runTracedWorkload runs the determinism workload with tracing enabled
// and returns the trace bytes.
func runTracedWorkload(t *testing.T, nPairs, rounds int, seed int64) []byte {
	t.Helper()
	pf := determinismPlatform(t, nPairs)
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
			t.Fatal(err)
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
			t.Fatal(err)
		}
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := env.Trace().Close(); err != nil {
		t.Fatalf("closing trace: %v", err)
	}
	return buf.Bytes()
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
		env.Model().EnableMetrics(nil)
		// The per-phase profiler hooks with profiling off.
		t0 := nilProf.Begin()
		nilProf.End(instr.PhaseSolve, t0)
		// The registry/trace handles a disabled run never populates.
		nilReg.Counter("x").Inc()
		nilReg.Gauge("x").Set(1)
		nilReg.Weighted("x").Observe(1, 2)
		nilTrace.SetState(0, "t0", "c0", "v")
		if env.Trace() != nil {
			t.Error("trace should be nil")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation hooks allocate: %.1f allocs/run, want 0", allocs)
	}
}
