package packet

import (
	"errors"
	"math"
	"testing"

	"repro/internal/platform"
)

// linePlatform builds a -- l1 -- r -- l2 -- b with given bandwidths
// (bytes/s) and latencies.
func linePlatform(t *testing.T, bw1, lat1, bw2, lat2 float64) *platform.Platform {
	t.Helper()
	p := platform.New()
	p.AddHost(&platform.Host{Name: "a", Power: 1e9})
	p.AddHost(&platform.Host{Name: "b", Power: 1e9})
	p.AddRouter("r")
	p.Connect("a", "r", &platform.Link{Name: "l1", Bandwidth: bw1, Latency: lat1})
	p.Connect("r", "b", &platform.Link{Name: "l2", Bandwidth: bw2, Latency: lat2})
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return p
}

// directPlatform: a -- link -- b.
func directPlatform(t *testing.T, bw, lat float64) *platform.Platform {
	t.Helper()
	p := platform.New()
	p.AddHost(&platform.Host{Name: "a", Power: 1e9})
	p.AddHost(&platform.Host{Name: "b", Power: 1e9})
	p.Connect("a", "b", &platform.Link{Name: "l", Bandwidth: bw, Latency: lat})
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSingleFlowApproachesLinkRate(t *testing.T) {
	// 100 MB over a 1.25e6 B/s (10 Mbit) link with 5 ms latency: long
	// enough to reach steady state; goodput should be close to
	// MSS/(MSS+header) of the link rate.
	pf := directPlatform(t, 1.25e6, 0.005)
	n := New(pf, DefaultConfig(VariantNS2))
	f, err := n.AddFlow("a", "b", 20e6, 0)
	if err != nil {
		t.Fatalf("AddFlow: %v", err)
	}
	if done := n.Run(0); done != 1 {
		t.Fatalf("completed %d flows, want 1", done)
	}
	gp := f.Throughput()
	maxGoodput := 1.25e6 * 1460 / 1500
	if gp > maxGoodput*1.001 {
		t.Errorf("goodput %g exceeds line rate %g", gp, maxGoodput)
	}
	if gp < 0.8*maxGoodput {
		t.Errorf("goodput %g too low (want >= 80%% of %g)", gp, maxGoodput)
	}
}

func TestBottleneckGovernsRate(t *testing.T) {
	// Second link is 4x slower: throughput bounded by it.
	pf := linePlatform(t, 1e7, 0.001, 2.5e6, 0.001)
	n := New(pf, DefaultConfig(VariantNS2))
	f, _ := n.AddFlow("a", "b", 20e6, 0)
	if done := n.Run(0); done != 1 {
		t.Fatalf("flow did not complete")
	}
	gp := f.Throughput()
	bottleneck := 2.5e6 * 1460 / 1500
	if gp > bottleneck*1.001 {
		t.Errorf("goodput %g above bottleneck %g", gp, bottleneck)
	}
	if gp < 0.75*bottleneck {
		t.Errorf("goodput %g too far below bottleneck %g", gp, bottleneck)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	// Two flows sharing one 10 Mbit bottleneck should each get roughly
	// half in steady state.
	pf := platform.New()
	pf.AddHost(&platform.Host{Name: "a1", Power: 1})
	pf.AddHost(&platform.Host{Name: "a2", Power: 1})
	pf.AddHost(&platform.Host{Name: "b", Power: 1})
	pf.AddRouter("r")
	pf.Connect("a1", "r", &platform.Link{Name: "in1", Bandwidth: 1.25e7, Latency: 0.001})
	pf.Connect("a2", "r", &platform.Link{Name: "in2", Bandwidth: 1.25e7, Latency: 0.001})
	pf.Connect("r", "b", &platform.Link{Name: "out", Bandwidth: 1.25e6, Latency: 0.004})
	if err := pf.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	n := New(pf, DefaultConfig(VariantNS2))
	f1, _ := n.AddFlow("a1", "b", 20e6, 0)
	f2, _ := n.AddFlow("a2", "b", 20e6, 0)
	if done := n.Run(0); done != 2 {
		t.Fatalf("completed %d flows, want 2", done)
	}
	g1, g2 := f1.Throughput(), f2.Throughput()
	// While both are active they share; after one ends the other speeds
	// up, so allow generous asymmetry but demand the same order.
	ratio := g1 / g2
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("unfair split: %g vs %g (ratio %g)", g1, g2, ratio)
	}
	// Combined goodput can't exceed the bottleneck.
	if g1+g2 > 1.25e6*1.01 {
		t.Errorf("combined %g exceeds bottleneck", g1+g2)
	}
}

func TestDropsTriggerRetransmits(t *testing.T) {
	// Tiny queue forces drops during slow start on a fat-to-thin path.
	cfg := DefaultConfig(VariantNS2)
	cfg.QueueLimit = 5
	pf := linePlatform(t, 1.25e7, 0.001, 1.25e5, 0.02)
	n := New(pf, cfg)
	f, _ := n.AddFlow("a", "b", 2e6, 0)
	if done := n.Run(0); done != 1 {
		t.Fatalf("flow did not complete")
	}
	if f.Retransmits() == 0 {
		t.Error("expected retransmissions on a congested tiny-queue path")
	}
	stats := n.Stats()
	drops := 0
	for _, s := range stats {
		drops += s.Dropped
	}
	if drops == 0 {
		t.Error("expected drops with QueueLimit=5")
	}
}

func TestFlowCompletesDespiteHeavyLoss(t *testing.T) {
	cfg := DefaultConfig(VariantNS2)
	cfg.QueueLimit = 2
	pf := linePlatform(t, 1.25e7, 0.0005, 1.25e5, 0.05)
	n := New(pf, cfg)
	f, _ := n.AddFlow("a", "b", 1e6, 0)
	if done := n.Run(0); done != 1 {
		t.Fatalf("flow did not complete (rexmits %d, timeouts %d)",
			f.Retransmits(), f.Timeouts())
	}
}

func TestThroughputZeroBeforeDone(t *testing.T) {
	pf := directPlatform(t, 1.25e6, 0.005)
	n := New(pf, DefaultConfig(VariantNS2))
	f, _ := n.AddFlow("a", "b", 1e9, 0)
	n.Run(0.1) // stop early
	if f.Done() {
		t.Fatal("1 GB flow done in 0.1 s?!")
	}
	if f.Throughput() != 0 {
		t.Error("throughput nonzero before completion")
	}
}

func TestMaxTimeStopsRun(t *testing.T) {
	pf := directPlatform(t, 1.25e6, 0.005)
	n := New(pf, DefaultConfig(VariantNS2))
	n.AddFlow("a", "b", 1e9, 0)
	done := n.Run(2)
	if done != 0 {
		t.Errorf("done = %d, want 0", done)
	}
	if n.Now() > 2.0001 {
		t.Errorf("clock ran to %g past maxTime", n.Now())
	}
}

func TestVariantsDiffer(t *testing.T) {
	run := func(v Variant) float64 {
		pf := directPlatform(t, 1.25e6, 0.02)
		n := New(pf, DefaultConfig(v))
		f, _ := n.AddFlow("a", "b", 5e6, 0)
		n.Run(0)
		return f.FinishTime()
	}
	ns2 := run(VariantNS2)
	gt := run(VariantGTNets)
	if ns2 == gt {
		t.Error("variants produced identical finish times; parameterisation inert")
	}
	// Both should still be in the same ballpark (same link!).
	if math.Abs(ns2-gt)/ns2 > 0.5 {
		t.Errorf("variants wildly different: %g vs %g", ns2, gt)
	}
}

func TestVariantStrings(t *testing.T) {
	if VariantNS2.String() != "ns2" || VariantGTNets.String() != "gtnets" {
		t.Error("variant strings wrong")
	}
}

func TestAddFlowErrors(t *testing.T) {
	pf := directPlatform(t, 1e6, 0.001)
	n := New(pf, DefaultConfig(VariantNS2))
	if _, err := n.AddFlow("a", "ghost", 1, 0); err == nil {
		t.Error("flow to unknown host accepted")
	}
	if _, err := n.AddFlow("a", "a", 1, 0); err == nil {
		t.Error("intra-host flow accepted")
	}
	// Platform with explicit (non-hop) routes only.
	p2 := platform.New()
	p2.AddHost(&platform.Host{Name: "x", Power: 1})
	p2.AddHost(&platform.Host{Name: "y", Power: 1})
	p2.AddRoute("x", "y", []*platform.Link{{Name: "l", Bandwidth: 1, Latency: 0}})
	n2 := New(p2, DefaultConfig(VariantNS2))
	if _, err := n2.AddFlow("x", "y", 1, 0); !errors.Is(err, ErrNoHopRoute) {
		t.Errorf("flow over an explicit route: err %v, want ErrNoHopRoute", err)
	}
}

func TestZeroConfigGetsDefaults(t *testing.T) {
	pf := directPlatform(t, 1.25e6, 0.001)
	n := New(pf, Config{})
	if n.Config().MSS == 0 {
		t.Error("zero config not defaulted")
	}
}

func TestTinyFlowCompletes(t *testing.T) {
	pf := directPlatform(t, 1.25e6, 0.001)
	n := New(pf, DefaultConfig(VariantNS2))
	f, _ := n.AddFlow("a", "b", 100, 0) // less than one MSS
	if done := n.Run(0); done != 1 {
		t.Fatal("tiny flow did not complete")
	}
	if f.FinishTime() <= 0 {
		t.Error("no finish time")
	}
}

func TestStaggeredStarts(t *testing.T) {
	pf := directPlatform(t, 1.25e6, 0.005)
	n := New(pf, DefaultConfig(VariantNS2))
	f1, _ := n.AddFlow("a", "b", 5e6, 0)
	f2, _ := n.AddFlow("a", "b", 5e6, 10)
	if done := n.Run(0); done != 2 {
		t.Fatal("flows did not complete")
	}
	if f2.FinishTime() <= 10 {
		t.Error("staggered flow finished before it started")
	}
	if f1.FinishTime() >= f2.FinishTime() {
		t.Error("first flow should finish first here")
	}
}

func TestSharedDirectedQueueCounted(t *testing.T) {
	// Two flows in the same direction share one directed queue; the
	// reverse direction is separate.
	pf := directPlatform(t, 1.25e6, 0.001)
	n := New(pf, DefaultConfig(VariantNS2))
	n.AddFlow("a", "b", 1e6, 0)
	n.AddFlow("a", "b", 1e6, 0)
	n.Run(0)
	stats := n.Stats()
	if len(stats) != 2 { // l->b (data), l->a (acks)
		t.Fatalf("got %d directed links, want 2: %+v", len(stats), stats)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(8, 7))
		if err != nil {
			t.Fatal(err)
		}
		n := New(pf, DefaultConfig(VariantNS2))
		n.AddFlow("host0", "host3", 2e6, 0)
		n.AddFlow("host1", "host5", 2e6, 0)
		n.AddFlow("host2", "host7", 2e6, 0)
		n.Run(0)
		var out []float64
		for _, f := range n.Flows() {
			out = append(out, f.FinishTime())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("flow %d: %g vs %g — nondeterministic", i, a[i], b[i])
		}
	}
}
