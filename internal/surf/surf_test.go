package surf

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/platform"
	"repro/internal/trace"
)

// testPlatform builds two hosts joined by one link:
// h1 (1 Gflop/s) -- l1 (1e8 B/s, 10 ms) -- h2 (2 Gflop/s).
func testPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	p := platform.New()
	if err := p.AddHost(&platform.Host{Name: "h1", Power: 1e9}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddHost(&platform.Host{Name: "h2", Power: 2e9}); err != nil {
		t.Fatal(err)
	}
	l := &platform.Link{Name: "l1", Bandwidth: 1e8, Latency: 0.01}
	if err := p.AddRoute("h1", "h2", []*platform.Link{l}); err != nil {
		t.Fatal(err)
	}
	return p
}

// exactCfg disables calibration factors so tests can assert exact times.
func exactCfg() Config { return Config{BandwidthFactor: 1, LatencyFactor: 1, TCPGamma: 0} }

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// execute and communicate start an activity on hosts named the way the
// tests name them, through the handles the model hands out.
func execute(m *Model, host string, flops, priority float64) (*Action, error) {
	return m.ExecuteHandle(m.HostHandle(host), flops, priority)
}

func communicate(m *Model, src, dst string, bytes float64) (*Action, error) {
	h, err := m.RouteHandle(src, dst)
	if err != nil {
		return nil, err
	}
	return m.CommunicateHandle(h, bytes)
}

func TestExecuteDuration(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var doneAt float64
	e.Spawn("p", nil, func(p *core.Process) {
		a, err := execute(m, "h1", 2e9, 1) // 2 Gflop on 1 Gflop/s
		if err != nil {
			t.Errorf("Execute: %v", err)
			return
		}
		if err := a.Wait(p); err != nil {
			t.Errorf("Wait: %v", err)
		}
		doneAt = e.Now()
		if !a.Done() || a.Err() != nil {
			t.Error("action not done/clean")
		}
		if a.start != 0 || !approx(a.finish, 2, 1e-9) {
			t.Errorf("start/finish = %g/%g", a.start, a.finish)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(doneAt, 2, 1e-9) {
		t.Errorf("done at %g, want 2", doneAt)
	}
}

// stackRecorder is a Completion handler that records the stack it runs
// on.
type stackRecorder struct{ stack string }

func (r *stackRecorder) ActionDone(*Action, error) {
	buf := make([]byte, 64<<10)
	r.stack = string(buf[:runtime.Stack(buf, false)])
}

// TestCompletionRunsOffProcessStacks: a completion handler runs in the
// kernel turn, on the drive loop's stack, not on the coroutine of the
// process whose park ended the round.
func TestCompletionRunsOffProcessStacks(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	rec := &stackRecorder{}
	e.Spawn("p", nil, func(p *core.Process) {
		a, err := execute(m, "h1", 1e9, 1)
		if err != nil {
			t.Errorf("Execute: %v", err)
			return
		}
		a.SetCompletion(rec)
		_ = p.Sleep(5) // the action completes while its starter sleeps
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rec.stack == "" {
		t.Fatal("the completion handler never ran")
	}
	if strings.Contains(rec.stack, "runProcessBody") {
		t.Errorf("completion handler ran on a process stack:\n%s", rec.stack)
	}
}

func TestExecuteOnFasterHost(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	e.Spawn("p", nil, func(p *core.Process) {
		a, _ := execute(m, "h2", 2e9, 1) // 2 Gflop on 2 Gflop/s
		a.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(e.Now(), 1, 1e-9) {
		t.Errorf("finished at %g, want 1", e.Now())
	}
}

func TestTwoExecutionsShareCPU(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var t1, t2 float64
	spawn := func(out *float64) {
		e.Spawn("p", nil, func(p *core.Process) {
			a, _ := execute(m, "h1", 1e9, 1)
			a.Wait(p)
			*out = e.Now()
		})
	}
	spawn(&t1)
	spawn(&t2)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Two 1-second tasks sharing: both end at t=2.
	if !approx(t1, 2, 1e-9) || !approx(t2, 2, 1e-9) {
		t.Errorf("finished at %g/%g, want 2/2", t1, t2)
	}
}

func TestPriorityGetsBiggerShare(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var tHigh, tLow float64
	e.Spawn("high", nil, func(p *core.Process) {
		a, _ := execute(m, "h1", 1e9, 3) // 3x priority
		a.Wait(p)
		tHigh = e.Now()
	})
	e.Spawn("low", nil, func(p *core.Process) {
		a, _ := execute(m, "h1", 1e9, 1)
		a.Wait(p)
		tLow = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// High gets 0.75 Gflop/s -> finishes at 4/3; low then speeds up:
	// at 4/3 low has done 1/3 Gflop, 2/3 remaining at full speed -> 2.
	if !approx(tHigh, 4.0/3, 1e-6) {
		t.Errorf("high finished at %g, want 4/3", tHigh)
	}
	if !approx(tLow, 2, 1e-6) {
		t.Errorf("low finished at %g, want 2", tLow)
	}
}

// TestNaNRefused: a NaN key would hide every later event in the
// action heap, so a NaN amount is refused and a NaN priority counts as
// a non-positive one; the execution on h2 still ends on time.
func TestNaNRefused(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var doneAt float64
	e.Spawn("p", nil, func(p *core.Process) {
		if _, err := execute(m, "h1", math.NaN(), 1); err == nil {
			t.Error("Execute of NaN flops accepted")
		}
		if _, err := communicate(m, "h1", "h2", math.NaN()); err == nil {
			t.Error("Communicate of NaN bytes accepted")
		}
		if _, err := m.ExecuteParallel([]string{"h1"}, []float64{math.NaN()}, nil); err == nil {
			t.Error("ExecuteParallel of NaN flops accepted")
		}
		if _, err := m.ExecuteParallel([]string{"h1", "h2"}, []float64{1, 1}, [][]float64{{0, math.NaN()}, {0, 0}}); err == nil {
			t.Error("ExecuteParallel of NaN bytes accepted")
		}
		a, err := execute(m, "h2", 1e9, math.NaN()) // 1 Gflop on 2 Gflop/s
		if err != nil {
			t.Errorf("Execute: %v", err)
			return
		}
		a.Wait(p)
		doneAt = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(doneAt, 0.5, 1e-9) {
		t.Errorf("finished at %g, want 0.5", doneAt)
	}
}

func TestCommunicateLatencyPlusBandwidth(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	e.Spawn("p", nil, func(p *core.Process) {
		a, err := communicate(m, "h1", "h2", 1e8) // 1e8 B at 1e8 B/s + 10ms
		if err != nil {
			t.Errorf("Communicate: %v", err)
			return
		}
		if a.kind != ActionComm {
			t.Errorf("kind = %v", a.kind)
		}
		a.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(e.Now(), 1.01, 1e-9) {
		t.Errorf("finished at %g, want 1.01", e.Now())
	}
}

func TestBandwidthFactorScalesRate(t *testing.T) {
	e := core.New()
	cfg := Config{BandwidthFactor: 0.5, LatencyFactor: 1, TCPGamma: 0}
	m := New(e, testPlatform(t), cfg)
	e.Spawn("p", nil, func(p *core.Process) {
		a, _ := communicate(m, "h1", "h2", 1e8)
		a.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Effective bandwidth 5e7 -> 2 s + 10 ms.
	if !approx(e.Now(), 2.01, 1e-9) {
		t.Errorf("finished at %g, want 2.01", e.Now())
	}
}

func TestLatencyFactorScalesLatency(t *testing.T) {
	e := core.New()
	cfg := Config{BandwidthFactor: 1, LatencyFactor: 10, TCPGamma: 0}
	m := New(e, testPlatform(t), cfg)
	e.Spawn("p", nil, func(p *core.Process) {
		a, _ := communicate(m, "h1", "h2", 1e8)
		a.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(e.Now(), 1.1, 1e-9) {
		t.Errorf("finished at %g, want 1.1", e.Now())
	}
}

func TestTCPWindowBound(t *testing.T) {
	// gamma/(2*RTT) = 1e6/(2*0.01) = 5e7 < bandwidth 1e8: window-bound.
	e := core.New()
	cfg := Config{BandwidthFactor: 1, LatencyFactor: 1, TCPGamma: 1e6}
	m := New(e, testPlatform(t), cfg)
	e.Spawn("p", nil, func(p *core.Process) {
		a, _ := communicate(m, "h1", "h2", 5e7)
		a.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 5e7 bytes at 5e7 B/s + 0.01 latency = 1.01.
	if !approx(e.Now(), 1.01, 1e-6) {
		t.Errorf("finished at %g, want 1.01 (window-bound)", e.Now())
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var t1, t2 float64
	spawn := func(out *float64) {
		e.Spawn("f", nil, func(p *core.Process) {
			a, _ := communicate(m, "h1", "h2", 5e7)
			a.Wait(p)
			*out = e.Now()
		})
	}
	spawn(&t1)
	spawn(&t2)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Each gets 5e7 B/s: 1 s transfer + 10 ms latency.
	if !approx(t1, 1.01, 1e-6) || !approx(t2, 1.01, 1e-6) {
		t.Errorf("finished at %g/%g, want 1.01", t1, t2)
	}
}

// TestLatencyPhaseTakesNoShare: a transfer still paying latency holds
// no bandwidth share, whatever is done to its priority meanwhile. Flow
// A (1e8 B on a 1e8 B/s, 1 s link) has the link to itself over [1, 2]
// — flow B starts at t=1 and spends that second on its latency — so A
// finishes at 2.0 in every variant.
func TestLatencyPhaseTakesNoShare(t *testing.T) {
	cases := []struct {
		name  string
		touch func(b *Action)
	}{
		{"untouched", func(*Action) {}},
		{"reweight", func(b *Action) { reweight(b, 1) }},
		{"Suspend+Resume", func(b *Action) { b.Suspend(); b.Resume() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := platform.New()
			p.AddHost(&platform.Host{Name: "h1", Power: 1e9})
			p.AddHost(&platform.Host{Name: "h2", Power: 1e9})
			l := &platform.Link{Name: "l", Bandwidth: 1e8, Latency: 1}
			if err := p.AddRoute("h1", "h2", []*platform.Link{l}); err != nil {
				t.Fatal(err)
			}
			e := core.New()
			m := New(e, p, exactCfg())
			var doneA, doneB float64
			e.Spawn("A", nil, func(pr *core.Process) {
				a, _ := communicate(m, "h1", "h2", 1e8)
				a.Wait(pr)
				doneA = e.Now()
			})
			e.Spawn("B", nil, func(pr *core.Process) {
				pr.Sleep(1)
				b, _ := communicate(m, "h1", "h2", 1e8)
				c.touch(b)
				b.Wait(pr)
				doneB = e.Now()
			})
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			// B: latency over [1, 2], then the whole link for 1 s.
			if !approx(doneA, 2, 1e-6) || !approx(doneB, 3, 1e-6) {
				t.Errorf("A/B finished at %g/%g, want 2/3", doneA, doneB)
			}
		})
	}
}

func TestFatpipeDoesNotShare(t *testing.T) {
	p := platform.New()
	p.AddHost(&platform.Host{Name: "h1", Power: 1e9})
	p.AddHost(&platform.Host{Name: "h2", Power: 1e9})
	l := &platform.Link{Name: "bb", Bandwidth: 1e8, Latency: 0, Policy: platform.Fatpipe}
	p.AddRoute("h1", "h2", []*platform.Link{l})
	e := core.New()
	m := New(e, p, exactCfg())
	var times []float64
	for i := 0; i < 3; i++ {
		e.Spawn("f", nil, func(pr *core.Process) {
			a, _ := communicate(m, "h1", "h2", 1e8)
			a.Wait(pr)
			times = append(times, e.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, ts := range times {
		if !approx(ts, 1, 1e-6) {
			t.Errorf("fatpipe flow finished at %g, want 1", ts)
		}
	}
}

func TestMultiHopUsesAllLinks(t *testing.T) {
	p := platform.New()
	p.AddHost(&platform.Host{Name: "a", Power: 1e9})
	p.AddHost(&platform.Host{Name: "b", Power: 1e9})
	l1 := &platform.Link{Name: "l1", Bandwidth: 1e8, Latency: 0.001}
	l2 := &platform.Link{Name: "l2", Bandwidth: 5e7, Latency: 0.002} // bottleneck
	p.AddRoute("a", "b", []*platform.Link{l1, l2})
	e := core.New()
	m := New(e, p, exactCfg())
	e.Spawn("f", nil, func(pr *core.Process) {
		a, _ := communicate(m, "a", "b", 5e7)
		a.Wait(pr)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Bottleneck 5e7 B/s -> 1 s, latency 3 ms.
	if !approx(e.Now(), 1.003, 1e-6) {
		t.Errorf("finished at %g, want 1.003", e.Now())
	}
}

// TestRouteHandleOneCache: Communicate and RouteHandle resolve a pair
// through the same entry, and a handle kept across a topology mutation
// (a → b re-routed over the fast link alone) refreshes itself from the
// current entry on its next use.
func TestRouteHandleOneCache(t *testing.T) {
	p := platform.New()
	p.AddHost(&platform.Host{Name: "a", Power: 1e9})
	p.AddHost(&platform.Host{Name: "b", Power: 1e9})
	fast := &platform.Link{Name: "fast", Bandwidth: 1e8, Latency: 0.001}
	slow := &platform.Link{Name: "slow", Bandwidth: 5e7, Latency: 0.002}
	p.AddRoute("a", "b", []*platform.Link{fast, slow})
	e := core.New()
	m := New(e, p, exactCfg())
	kept, err := m.RouteHandle("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("f", nil, func(pr *core.Process) {
		a, _ := communicate(m, "a", "b", 5e7) // 1 s at the slow link's rate + 3 ms
		a.Wait(pr)
		if again, _ := m.RouteHandle("a", "b"); again != kept || len(m.routes) != 1 {
			t.Errorf("Communicate and RouteHandle resolved a->b separately (%d entries)", len(m.routes))
		}
		if err := p.AddRoute("a", "b", []*platform.Link{fast}); err != nil {
			t.Error(err)
		}
		a, err := m.CommunicateHandle(kept, 5e7) // 0.5 s + 1 ms on the new route
		if err != nil {
			t.Errorf("CommunicateHandle on a stale handle: %v", err)
			return
		}
		a.Wait(pr)
		cur, _ := m.RouteHandle("a", "b")
		if src, dst := kept.route.Src, kept.route.Dst; src != "a" || dst != "b" || kept == cur || len(kept.rs) != 1 || kept.route != cur.route {
			t.Errorf("stale handle after refresh: %+v, current entry %+v", kept, cur)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(e.Now(), 1.003+0.501, 1e-6) {
		t.Errorf("finished at %g, want 1.504", e.Now())
	}
}

// TestRouteHandleFirstResolutionAllocs bounds what resolving pairs for
// the first time allocates: the handle, its resources and its name are
// carved from the model's slabs, so 100 first resolutions cost a few
// chunks and the handle map's growth, not an object per pair.
// AllocsPerRun's warm-up call resolves every pair on one model; the
// measured call does so on a second model of the same platform.
func TestRouteHandleFirstResolutionAllocs(t *testing.T) {
	const pairs = 100
	pf := lockstepPlatform(t, pairs)
	models := []*Model{New(core.New(), pf, exactCfg()), New(core.New(), pf, exactCfg())}
	src, dst := make([]string, pairs), make([]string, pairs)
	for i := range src {
		src[i], dst[i] = fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
	}
	allocs := testing.AllocsPerRun(1, func() {
		m := models[0]
		models = models[1:]
		for i := range src {
			if _, err := m.RouteHandle(src[i], dst[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs >= pairs/4 {
		t.Errorf("%d first RouteHandle resolutions: %v allocs, want fewer than %d", pairs, allocs, pairs/4)
	}
}

func TestIntraHostCommIsInstant(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	e.Spawn("p", nil, func(p *core.Process) {
		a, err := communicate(m, "h1", "h1", 1e9)
		if err != nil {
			t.Errorf("Communicate: %v", err)
			return
		}
		a.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Now() != 0 {
		t.Errorf("intra-host comm took %g, want 0", e.Now())
	}
}

func TestZeroFlopsInstant(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	e.Spawn("p", nil, func(p *core.Process) {
		a, _ := execute(m, "h1", 0, 1)
		a.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Now() != 0 {
		t.Errorf("zero-flop exec took %g", e.Now())
	}
}

func TestUnknownHostAndRoute(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	if _, err := execute(m, "ghost", 1, 1); err == nil {
		t.Error("Execute on unknown host accepted")
	}
	if _, err := communicate(m, "ghost", "h1", 1); err == nil {
		t.Error("Communicate from unknown host accepted")
	}
}

func TestAvailabilityTraceSlowsCPU(t *testing.T) {
	p := testPlatform(t)
	// h1 drops to 50% power at t=1 forever.
	p.Host("h1").Availability = trace.MustNew("av", []trace.Event{{Time: 1, Value: 0.5}}, 0)
	e := core.New()
	m := New(e, p, exactCfg())
	e.Spawn("p", nil, func(pr *core.Process) {
		a, _ := execute(m, "h1", 2e9, 1)
		a.Wait(pr)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 1 Gflop done in first second; remaining 1 Gflop at 0.5 Gflop/s = 2 s.
	if !approx(e.Now(), 3, 1e-6) {
		t.Errorf("finished at %g, want 3", e.Now())
	}
}

func TestPeriodicAvailabilityTrace(t *testing.T) {
	p := testPlatform(t)
	// Alternates full/half speed every second, period 2.
	p.Host("h1").Availability = trace.MustNew("av",
		[]trace.Event{{Time: 0, Value: 1}, {Time: 1, Value: 0.5}}, 2)
	e := core.New()
	m := New(e, p, exactCfg())
	e.Spawn("p", nil, func(pr *core.Process) {
		a, _ := execute(m, "h1", 3e9, 1)
		a.Wait(pr)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Work per period: 1 + 0.5 = 1.5 Gflop. 3 Gflop = 2 periods = 4 s.
	if !approx(e.Now(), 4, 1e-6) {
		t.Errorf("finished at %g, want 4", e.Now())
	}
}

func TestStateTraceFailsComputation(t *testing.T) {
	p := testPlatform(t)
	p.Host("h1").StateTrace = trace.MustNew("st", []trace.Event{{Time: 1, Value: 0}}, 0)
	e := core.New()
	m := New(e, p, exactCfg())
	var hostDown bool
	m.Observer = &observer{changed: func(h *platform.Host, up bool) {
		if h.Name == "h1" && !up {
			hostDown = true
		}
	}}
	var gotErr error
	e.Spawn("p", nil, func(pr *core.Process) {
		a, _ := execute(m, "h1", 1e10, 1)
		gotErr = a.Wait(pr)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, ErrHostFailed) {
		t.Errorf("Wait = %v, want ErrHostFailed", gotErr)
	}
	if !hostDown {
		t.Error("HostStateChanged not called")
	}
	if !approx(e.Now(), 1, 1e-9) {
		t.Errorf("failed at %g, want 1", e.Now())
	}
	if m.HostUp("h1") {
		t.Error("h1 still reported up")
	}
}

func TestStateTraceRecovery(t *testing.T) {
	p := testPlatform(t)
	p.Host("h1").StateTrace = trace.MustNew("st",
		[]trace.Event{{Time: 1, Value: 0}, {Time: 2, Value: 1}}, 0)
	e := core.New()
	m := New(e, p, exactCfg())
	var phase2 error
	e.Spawn("p", nil, func(pr *core.Process) {
		a, _ := execute(m, "h1", 1e10, 1)
		if err := a.Wait(pr); !errors.Is(err, ErrHostFailed) {
			t.Errorf("first Wait = %v", err)
		}
		pr.Sleep(1.5) // wait past recovery (t=2.5)
		a2, _ := execute(m, "h1", 1e9, 1)
		phase2 = a2.Wait(pr)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if phase2 != nil {
		t.Errorf("post-recovery exec failed: %v", phase2)
	}
	if !approx(e.Now(), 3.5, 1e-6) {
		t.Errorf("finished at %g, want 3.5", e.Now())
	}
}

// TestPeriodicWrapSameInstant pins the wrap of a periodic trace whose
// period equals its last timestamp and whose first event is at 0: the
// last event of one period and the first of the next share an instant,
// and Replay applies both in one firing. Another timer due at that
// instant, armed after the trace's timer last fired, sees the state
// after both.
func TestPeriodicWrapSameInstant(t *testing.T) {
	p := testPlatform(t)
	p.Host("h1").StateTrace = trace.MustNew("st",
		[]trace.Event{{Time: 0, Value: 1}, {Time: 2, Value: 0}}, 2)
	e := core.New()
	m := New(e, p, exactCfg())
	var log []string
	m.Observer = &observer{watch: "h1", changed: func(h *platform.Host, up bool) {
		log = append(log, fmt.Sprintf("%g %s up=%v", e.Now(), h.Name, up))
	}}
	e.At(1, func() {
		e.At(2, func() { log = append(log, fmt.Sprintf("%g observer up=%v", e.Now(), m.HostUp("h1"))) })
	})
	e.At(3, e.Stop)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := "2 h1 up=false\n2 h1 up=true\n2 observer up=true"
	if got := strings.Join(log, "\n"); got != want {
		t.Errorf("wrap instant:\n%s\nwant:\n%s", got, want)
	}
}

// observer is a test HostObserver: changed (when set) sees every host
// state change, and it watches the host named watch.
type observer struct {
	changed func(h *platform.Host, up bool)
	watch   string
}

func (o *observer) HostStateChanged(h *platform.Host, up bool) {
	if o.changed != nil {
		o.changed(h, up)
	}
}

func (o *observer) Watches(h *platform.Host) bool { return h.Name == o.watch }

// TestQuietHostObserver pins Quiet's one observer field beside a
// periodic host state trace: a model with no observer (smpi's state) is
// quiet and its idle run ends at once; an observer watching the traced
// host keeps it live, one watching another host does not.
func TestQuietHostObserver(t *testing.T) {
	for _, tc := range []struct {
		name  string
		obs   HostObserver
		quiet bool
	}{
		{"no observer", nil, true},
		{"watching the traced host", &observer{watch: "h1"}, false},
		{"watching another host", &observer{watch: "h2"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testPlatform(t)
			p.Host("h1").StateTrace = trace.MustNew("st",
				[]trace.Event{{Time: 1, Value: 0}, {Time: 2, Value: 1}}, 2)
			e := core.New()
			m := New(e, p, exactCfg())
			m.Observer = tc.obs
			if got := m.Quiet(); got != tc.quiet {
				t.Fatalf("Quiet = %v, want %v", got, tc.quiet)
			}
			if !tc.quiet {
				return // a live periodic trace never lets an idle run end
			}
			if err := e.RunUntilIdle(); err != nil || e.Now() != 0 {
				t.Errorf("idle run: err %v, clock %g, want nil at 0", err, e.Now())
			}
		})
	}
}

func TestLinkFailureKillsTransfer(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var gotErr error
	e.Spawn("f", nil, func(pr *core.Process) {
		a, _ := communicate(m, "h1", "h2", 1e9)
		gotErr = a.Wait(pr)
	})
	e.Spawn("saboteur", nil, func(pr *core.Process) {
		pr.Sleep(0.5)
		m.FailLink("l1")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, ErrLinkFailed) {
		t.Errorf("Wait = %v, want ErrLinkFailed", gotErr)
	}
	if m.LinkUp("l1") {
		t.Error("l1 still up")
	}
}

func TestCommOnDownLinkFailsImmediately(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var gotErr error
	e.Spawn("f", nil, func(pr *core.Process) {
		m.FailLink("l1")
		a, err := communicate(m, "h1", "h2", 1e3)
		if err != nil {
			t.Errorf("Communicate: %v", err)
			return
		}
		gotErr = a.Wait(pr)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, ErrLinkFailed) {
		t.Errorf("Wait = %v, want ErrLinkFailed", gotErr)
	}
}

func TestExecOnDownHostFailsImmediately(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var gotErr error
	e.Spawn("p", nil, func(pr *core.Process) {
		m.FailHost("h1")
		a, _ := execute(m, "h1", 1e3, 1)
		gotErr = a.Wait(pr)
		m.RestoreHost("h1")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, ErrHostFailed) {
		t.Errorf("Wait = %v, want ErrHostFailed", gotErr)
	}
	if !m.HostUp("h1") {
		t.Error("h1 not restored")
	}
}

// metric reads one key of the metrics that into reports (NaN, after
// reporting, if they do not decode). It runs on process stacks, so it
// reports with t.Error, not t.Fatal.
func metric(t *testing.T, into func(*instr.Registry), key string) float64 {
	t.Helper()
	r := instr.NewRegistry()
	into(r)
	var buf bytes.Buffer
	var snap map[string]float64
	if err := r.WriteJSON(&buf); err != nil {
		t.Error(err)
		return math.NaN()
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Error(err)
		return math.NaN()
	}
	return snap[key]
}

// simcalls reads the engine's fast and slow simcall counts.
func simcalls(t *testing.T, e *core.Engine) (fast, slow float64) {
	t.Helper()
	return metric(t, e.MetricsInto, "core.simcalls_fast"), metric(t, e.MetricsInto, "core.simcalls_slow")
}

// TestFailedAtCreation: every constructor hands back an action whose
// host or link is down already finished by complete, holding no solver
// variable and no heap entry, and Wait answers it inline. A pending
// action of the same constructor parks its one waiter (one slow
// simcall, woken at its finish) and refuses a second.
func TestFailedAtCreation(t *testing.T) {
	ptask := func(m *Model) (*Action, error) {
		return m.ExecuteParallel([]string{"h1", "h2"}, []float64{1e9, 1e9}, [][]float64{{0, 1e8}, {0, 0}})
	}
	cases := []struct {
		name  string
		down  func(m *Model) error
		start func(m *Model) (*Action, error)
		want  error
	}{
		{"execute", func(m *Model) error { return m.FailHost("h1") },
			func(m *Model) (*Action, error) { return execute(m, "h1", 1e9, 1) }, ErrHostFailed},
		{"communicate", func(m *Model) error { return m.FailLink("l1") },
			func(m *Model) (*Action, error) { return communicate(m, "h1", "h2", 1e8) }, ErrLinkFailed},
		{"parallel/host", func(m *Model) error { return m.FailHost("h2") }, ptask, ErrHostFailed},
		{"parallel/link", func(m *Model) error { return m.FailLink("l1") }, ptask, ErrLinkFailed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := core.New()
			m := New(e, testPlatform(t), exactCfg())
			e.Spawn("p", nil, func(p *core.Process) {
				pending, err := c.start(m)
				if err != nil {
					t.Errorf("start: %v", err)
					return
				}
				e.Spawn("second", nil, func(q *core.Process) {
					if err := pending.Wait(q); err == nil {
						t.Error("second Wait on a pending action accepted")
					}
				})
				_, slow := simcalls(t, e)
				if err := pending.Wait(p); err != nil {
					t.Errorf("Wait on the pending action: %v", err)
				}
				if _, after := simcalls(t, e); after-slow != 1 || e.Now() != pending.finish {
					t.Errorf("pending Wait: %g slow simcalls, woke at %g, want 1 at %g", after-slow, e.Now(), pending.finish)
				}
				if err := c.down(m); err != nil {
					t.Errorf("down: %v", err)
					return
				}
				a, err := c.start(m)
				if err != nil {
					t.Errorf("start on a downed resource: %v", err)
					return
				}
				if !a.Done() || !errors.Is(a.Err(), c.want) || a.finish != a.start {
					t.Errorf("done=%v err=%v start=%g finish=%g, want done with %v at start",
						a.Done(), a.Err(), a.start, a.finish, c.want)
				}
				if vars := metric(t, m.MetricsInto, "maxmin.vars"); a.v != nil || len(m.heap) != 0 || vars != 0 {
					t.Errorf("failed action left v=%v, heap=%d, %g solver variables", a.v, len(m.heap), vars)
				}
				fast, slow := simcalls(t, e)
				if err := a.Wait(p); !errors.Is(err, c.want) {
					t.Errorf("Wait = %v, want %v", err, c.want)
				}
				if f, s := simcalls(t, e); f != fast+1 || s != slow {
					t.Errorf("simcalls went %g/%g -> %g/%g fast/slow, want Fast +1, Slow +0", fast, slow, f, s)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

func TestCancelAction(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var gotErr error
	var act *Action
	e.Spawn("p", nil, func(pr *core.Process) {
		act, _ = execute(m, "h1", 1e12, 1)
		gotErr = act.Wait(pr)
	})
	e.Spawn("canceler", nil, func(pr *core.Process) {
		pr.Sleep(1)
		act.Cancel()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, ErrCanceled) {
		t.Errorf("Wait = %v, want ErrCanceled", gotErr)
	}
}

func TestSuspendResumeAction(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var act *Action
	var doneAt float64
	e.Spawn("p", nil, func(pr *core.Process) {
		act, _ = execute(m, "h1", 2e9, 1) // 2 s of work
		act.Wait(pr)
		doneAt = e.Now()
	})
	e.Spawn("ctl", nil, func(pr *core.Process) {
		pr.Sleep(1)
		act.Suspend()
		if !act.suspended {
			t.Error("not suspended")
		}
		pr.Sleep(3)
		act.Resume()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 1 s work + 3 s frozen + 1 s work = 5.
	if !approx(doneAt, 5, 1e-6) {
		t.Errorf("done at %g, want 5", doneAt)
	}
}

func TestParallelTaskSpansResources(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	e.Spawn("p", nil, func(pr *core.Process) {
		// 1 Gflop on h1 (1 Gflop/s), 1 Gflop on h2 (2 Gflop/s), and
		// 5e7 B h1->h2 (1e8 B/s): rate x bounded by h1: x <= 1;
		// completion at 1/x = 1 s (h1 is the bottleneck).
		a, err := m.ExecuteParallel(
			[]string{"h1", "h2"},
			[]float64{1e9, 1e9},
			[][]float64{{0, 5e7}, {0, 0}},
		)
		if err != nil {
			t.Errorf("ExecuteParallel: %v", err)
			return
		}
		if a.kind != ActionParallel {
			t.Errorf("kind = %v", a.kind)
		}
		a.Wait(pr)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(e.Now(), 1, 1e-6) {
		t.Errorf("ptask finished at %g, want 1", e.Now())
	}
}

func TestParallelTaskValidation(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	if _, err := m.ExecuteParallel([]string{"h1"}, []float64{1, 2}, nil); err == nil {
		t.Error("mismatched flops accepted")
	}
	if _, err := m.ExecuteParallel([]string{"ghost"}, []float64{1}, nil); err == nil {
		t.Error("unknown host accepted")
	}
	if _, err := m.ExecuteParallel([]string{"h1", "h2"}, []float64{1, 1}, [][]float64{{0}}); err == nil {
		t.Error("bad matrix accepted")
	}
}

func TestEmptyParallelTaskInstant(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	e.Spawn("p", nil, func(pr *core.Process) {
		a, err := m.ExecuteParallel([]string{"h1"}, []float64{0}, nil)
		if err != nil {
			t.Errorf("ExecuteParallel: %v", err)
			return
		}
		a.Wait(pr)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Now() != 0 {
		t.Errorf("empty ptask took %g", e.Now())
	}
}

func TestComputeAndCommCoexist(t *testing.T) {
	// Computation and communication don't interfere (separate
	// resources) but both advance in the same timeline.
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var tExec, tComm float64
	e.Spawn("cpu", nil, func(pr *core.Process) {
		a, _ := execute(m, "h1", 1e9, 1)
		a.Wait(pr)
		tExec = e.Now()
	})
	e.Spawn("net", nil, func(pr *core.Process) {
		a, _ := communicate(m, "h1", "h2", 5e7)
		a.Wait(pr)
		tComm = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(tExec, 1, 1e-6) {
		t.Errorf("exec at %g, want 1", tExec)
	}
	if !approx(tComm, 0.51, 1e-6) {
		t.Errorf("comm at %g, want 0.51", tComm)
	}
}

// TestHostLoadReporting reads a CPU's load while one action runs, then
// with two sharing it, at the instant the shorter one completes (no
// solve since: the survivor still holds its half share, and the finished
// action no longer counts) and once the survivor has the whole CPU.
func TestHostLoadReporting(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	e.Spawn("p", nil, func(pr *core.Process) {
		hostLoad := m.cpus["h1"].cnst.Usage
		a, _ := execute(m, "h1", 1e9, 1)
		pr.Sleep(0.5)
		if load := hostLoad(); !approx(load, 1e9, 1) {
			t.Errorf("load = %g, want 1e9", load)
		}
		a.Wait(pr)
		short, _ := execute(m, "h1", 1e9, 1)
		long, _ := execute(m, "h1", 2e9, 1)
		pr.Sleep(0.5)
		if load := hostLoad(); load != 1e9 {
			t.Errorf("load with two actions = %g, want 1e9", load)
		}
		short.Wait(pr)
		if load := hostLoad(); load != 5e8 {
			t.Errorf("load at the completion instant = %g, want 5e8", load)
		}
		pr.Sleep(0.5)
		if load := hostLoad(); load != 1e9 {
			t.Errorf("load after the next solve = %g, want 1e9", load)
		}
		long.Wait(pr)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BandwidthFactor <= 0 || cfg.BandwidthFactor > 1 {
		t.Errorf("BandwidthFactor = %g", cfg.BandwidthFactor)
	}
	if cfg.TCPGamma <= 0 {
		t.Errorf("TCPGamma = %g", cfg.TCPGamma)
	}
}

func TestActionKindStrings(t *testing.T) {
	if ActionCompute.String() != "compute" || ActionComm.String() != "comm" ||
		ActionParallel.String() != "parallel" || ActionKind(9).String() != "unknown" {
		t.Error("kind strings wrong")
	}
}

func TestModelAccessors(t *testing.T) {
	e := core.New()
	pf := testPlatform(t)
	m := New(e, pf, exactCfg())
	if m.Engine() != e || m.Platform() != pf {
		t.Error("accessors wrong")
	}
	if m.cfg.BandwidthFactor != 1 {
		t.Error("config not stored")
	}
	if err := m.FailHost("ghost"); err == nil {
		t.Error("FailHost(ghost) accepted")
	}
	if err := m.RestoreHost("ghost"); err == nil {
		t.Error("RestoreHost(ghost) accepted")
	}
	if err := m.FailLink("ghost"); err == nil {
		t.Error("FailLink(ghost) accepted")
	}
	if err := m.RestoreLink("ghost"); err == nil {
		t.Error("RestoreLink(ghost) accepted")
	}
}

func TestWaitAfterCompletion(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	e.Spawn("p", nil, func(pr *core.Process) {
		a, _ := execute(m, "h1", 1e6, 1)
		pr.Sleep(1) // action completes during the sleep
		if err := a.Wait(pr); err != nil {
			t.Errorf("Wait after completion: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDoubleWaiterRejected(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var act *Action
	e.Spawn("p1", nil, func(pr *core.Process) {
		act, _ = execute(m, "h1", 1e9, 1)
		act.Wait(pr)
	})
	e.Spawn("p2", nil, func(pr *core.Process) {
		pr.Sleep(0) // let p1 attach first
		if err := act.Wait(pr); err == nil {
			t.Error("second waiter accepted")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// The lazy progress bookkeeping (absolute completion estimates,
// re-integrated only when the MaxMin solve changes a rate) must still
// report live Remaining values mid-flight, and churn on unrelated
// resources must not disturb an action's progress or completion time.
func TestRemainingTracksLazyProgress(t *testing.T) {
	e := core.New()
	m := New(e, testPlatform(t), exactCfg())
	var act *Action
	e.Spawn("worker", nil, func(p *core.Process) {
		var err error
		act, err = execute(m, "h1", 2e9, 1) // 2 Gflop at 1 Gflop/s -> done at 2
		if err != nil {
			t.Errorf("Execute: %v", err)
			return
		}
		act.Wait(p)
	})
	// Unrelated churn on h2: forces re-solves whose partial results must
	// leave h1's action untouched (it is in another component).
	e.At(0.25, func() {
		if _, err := execute(m, "h2", 1e9, 1); err != nil {
			t.Errorf("churn Execute: %v", err)
		}
	})
	var remAtHalf, rateAtHalf float64
	e.At(0.5, func() {
		act.syncProgress(e.Now())
		remAtHalf = act.remaining
		rateAtHalf = act.rate
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(remAtHalf, 1.5e9, 1) {
		t.Errorf("Remaining at t=0.5 = %g, want 1.5e9", remAtHalf)
	}
	if !approx(rateAtHalf, 1e9, 1) {
		t.Errorf("Rate at t=0.5 = %g, want 1e9", rateAtHalf)
	}
	if !approx(e.Now(), 2, 1e-9) {
		t.Errorf("finished at %g, want 2", e.Now())
	}
	if act.remaining != 0 {
		t.Errorf("Remaining after completion = %g, want 0", act.remaining)
	}
}
