package validate

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/pool/pooltest"
	"repro/internal/surf"
)

// smallExperiment keeps unit-test runtime low: 8 routers, 5 flows of
// 5 MB (the real figure-scale experiment lives in cmd/validate and the
// benchmark harness).
func smallExperiment(t *testing.T) (*platform.Platform, []FlowSpec) {
	t.Helper()
	pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(8, 42))
	if err != nil {
		t.Fatal(err)
	}
	return pf, RandomFlows(pf, 5, 5e6, 7)
}

func TestRandomFlowsDeterministic(t *testing.T) {
	pf, _ := smallExperiment(t)
	a := RandomFlows(pf, 10, 1e6, 3)
	b := RandomFlows(pf, 10, 1e6, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs between same-seed draws", i)
		}
	}
	c := RandomFlows(pf, 10, 1e6, 4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical flows")
	}
}

func TestRandomFlowsDistinctPairs(t *testing.T) {
	pf, _ := smallExperiment(t)
	flows := RandomFlows(pf, 10, 1e6, 5)
	seen := map[[2]string]bool{}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Errorf("self-flow %v", f)
		}
		k := [2]string{f.Src, f.Dst}
		if seen[k] {
			t.Errorf("duplicate pair %v", k)
		}
		seen[k] = true
		if f.Bytes != 1e6 {
			t.Errorf("bytes = %g", f.Bytes)
		}
	}
}

func TestRunFluidRatesPositive(t *testing.T) {
	pf, flows := smallExperiment(t)
	rates, err := RunFluid(pf, flows, surf.DefaultConfig())
	if err != nil {
		t.Fatalf("RunFluid: %v", err)
	}
	for i, r := range rates {
		if r <= 0 {
			t.Errorf("flow %d rate %g", i, r)
		}
	}
}

// TestRunFluidPin holds the fluid side of E1/E2 to the bit on one
// Waxman seed: each flow's rate as Float64bits, with the free lists on
// and off.
func TestRunFluidPin(t *testing.T) {
	pf, flows := smallExperiment(t)
	var rates []float64
	pooltest.Replay(t, 1, func() []byte {
		var err error
		rates, err = RunFluid(pf, flows, surf.DefaultConfig())
		if err != nil {
			t.Fatalf("RunFluid: %v", err)
		}
		var out []byte
		for _, r := range rates {
			out = fmt.Appendf(out, "%016x\n", math.Float64bits(r))
		}
		return out
	})
	want := []uint64{
		0x414f2fd17ddc921f, // 4.087714983293786e+06
		0x413694116362ee9e, // 1.479697388228334e+06
		0x41390e748494e5e3, // 1.642100517897003e+06
		0x413cf080a4a7cc0f, // 1.8965766431853806e+06
		0x4136a396c4e3cd85, // 1.483670769100995e+06
	}
	if len(rates) != len(want) {
		t.Fatalf("%d rates, want %d", len(rates), len(want))
	}
	for i, r := range rates {
		if math.Float64bits(r) != want[i] {
			t.Errorf("flow %d rate %g (%#x), want %g (%#x)", i, r, math.Float64bits(r), math.Float64frombits(want[i]), want[i])
		}
	}
}

func TestFullExperimentAgreesInShape(t *testing.T) {
	if testing.Short() {
		t.Skip("packet simulation is slow")
	}
	pf, flows := smallExperiment(t)
	res, err := Run(pf, flows, surf.DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Flows) != len(flows) {
		t.Fatalf("got %d results", len(res.Flows))
	}
	// Shape assertions, not absolute numbers: the fluid model must be
	// in the right ballpark of the packet comparators on short runs
	// (slow start weighs more on 5 MB flows than on the paper's 100 MB,
	// so the tolerance is looser than the headline ±15%).
	if res.MeanAbsErrVsNS2() > 0.5 {
		var buf bytes.Buffer
		res.Report(&buf)
		t.Errorf("mean |err| vs NS2 = %.1f%% (> 50%%)\n%s",
			100*res.MeanAbsErrVsNS2(), buf.String())
	}
	// The fluid simulation must be dramatically faster (paper: orders
	// of magnitude).
	if res.Speedup() < 10 {
		t.Errorf("speedup only %.1fx", res.Speedup())
	}
	for i, f := range res.Flows {
		if f.FluidRate <= 0 || f.NS2Rate <= 0 || f.GTNetsRate <= 0 {
			t.Errorf("flow %d has a zero rate: %+v", i, f)
		}
	}
}

func TestReportFormat(t *testing.T) {
	res := &Result{
		Flows: []FlowResult{
			{FlowSpec: FlowSpec{Src: "a", Dst: "b", Bytes: 1e6},
				FluidRate: 1e6, NS2Rate: 1.1e6, GTNetsRate: 0.9e6},
		},
		FluidWall: 1, NS2Wall: 1000, GTNetsWall: 500,
	}
	var buf bytes.Buffer
	res.Report(&buf)
	out := buf.String()
	for _, want := range []string{"NS2", "GTNets", "SimGrid", "speedup", "mean |err|"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if res.Speedup() != 1000 {
		t.Errorf("Speedup = %g, want 1000", res.Speedup())
	}
}

func TestErrMetrics(t *testing.T) {
	fr := FlowResult{FluidRate: 110, NS2Rate: 100, GTNetsRate: 0}
	if e := fr.ErrVsNS2(); e < 0.0999 || e > 0.1001 {
		t.Errorf("ErrVsNS2 = %g, want 0.1", e)
	}
	if e := fr.ErrVsGTNets(); !isInf(e) {
		t.Errorf("ErrVsGTNets = %g, want +Inf for zero comparator", e)
	}
	res := &Result{Flows: []FlowResult{
		{FluidRate: 110, NS2Rate: 100},
		{FluidRate: 80, NS2Rate: 100},
	}}
	if m := res.MeanAbsErrVsNS2(); m < 0.149 || m > 0.151 {
		t.Errorf("MeanAbsErrVsNS2 = %g, want 0.15", m)
	}
	if m := res.MaxAbsErrVsNS2(); m < 0.199 || m > 0.201 {
		t.Errorf("MaxAbsErrVsNS2 = %g, want 0.2", m)
	}
}

func isInf(f float64) bool { return f > 1e308 }
