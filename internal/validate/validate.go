// Package validate implements the paper's validation experiment: a
// random BRITE/Waxman topology, 10 random flows of 100 MB between
// random host pairs, simulated with the fluid MaxMin model (SimGrid)
// and with two packet-level comparators (NS2 and GTNets stand-ins),
// comparing per-flow transfer rates and simulation wall-clock times.
package validate

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/surf"
)

// FlowSpec describes one transfer of the experiment.
type FlowSpec struct {
	Src, Dst string
	Bytes    float64
}

// FlowResult holds the per-simulator transfer rate of one flow.
type FlowResult struct {
	FlowSpec
	FluidRate  float64 // bytes/s (SimGrid fluid model)
	NS2Rate    float64 // bytes/s (packet, Reno)
	GTNetsRate float64 // bytes/s (packet, aggressive)
}

// ErrVsNS2 returns the relative error of the fluid rate vs the NS2
// comparator.
func (fr FlowResult) ErrVsNS2() float64 {
	if fr.NS2Rate == 0 {
		return math.Inf(1)
	}
	return (fr.FluidRate - fr.NS2Rate) / fr.NS2Rate
}

// ErrVsGTNets returns the relative error vs the GTNets comparator.
func (fr FlowResult) ErrVsGTNets() float64 {
	if fr.GTNetsRate == 0 {
		return math.Inf(1)
	}
	return (fr.FluidRate - fr.GTNetsRate) / fr.GTNetsRate
}

// Result is the outcome of the experiment.
type Result struct {
	Flows []FlowResult

	FluidWall  time.Duration // wall-clock time of the fluid simulation
	NS2Wall    time.Duration
	GTNetsWall time.Duration
}

// Speedup returns how many times faster the fluid simulation ran
// compared to the slowest packet-level comparator.
func (r *Result) Speedup() float64 {
	pkt := r.NS2Wall
	if r.GTNetsWall > pkt {
		pkt = r.GTNetsWall
	}
	if r.FluidWall <= 0 {
		return math.Inf(1)
	}
	return float64(pkt) / float64(r.FluidWall)
}

// MaxAbsErrVsNS2 returns the worst |relative error| vs NS2 over flows.
func (r *Result) MaxAbsErrVsNS2() float64 {
	worst := 0.0
	for _, f := range r.Flows {
		if e := math.Abs(f.ErrVsNS2()); e > worst {
			worst = e
		}
	}
	return worst
}

// MeanAbsErrVsNS2 returns the mean |relative error| vs NS2 over flows.
func (r *Result) MeanAbsErrVsNS2() float64 {
	if len(r.Flows) == 0 {
		return 0
	}
	sum := 0.0
	for _, f := range r.Flows {
		sum += math.Abs(f.ErrVsNS2())
	}
	return sum / float64(len(r.Flows))
}

// RandomFlows draws n distinct random source-destination host pairs
// from the platform, each transferring `bytes` bytes, using a seeded
// generator (the paper: "10 random flows for 10 random
// source-destination pairs").
func RandomFlows(pf *platform.Platform, n int, bytes float64, seed int64) []FlowSpec {
	rng := rand.New(rand.NewSource(seed))
	hosts := pf.Hosts()
	var flows []FlowSpec
	used := map[[2]string]bool{}
	for len(flows) < n {
		src := hosts[rng.Intn(len(hosts))].Name
		dst := hosts[rng.Intn(len(hosts))].Name
		if src == dst || used[[2]string{src, dst}] {
			continue
		}
		used[[2]string{src, dst}] = true
		flows = append(flows, FlowSpec{Src: src, Dst: dst, Bytes: bytes})
	}
	return flows
}

// RunFluid simulates the flows with the fluid model and returns
// per-flow rates (bytes / completion time).
func RunFluid(pf *platform.Platform, flows []FlowSpec, cfg surf.Config) ([]float64, error) {
	eng := core.New()
	model := surf.New(eng, pf, cfg)
	rates := make([]float64, len(flows))
	var firstErr error
	for i, fs := range flows {
		i, fs := i, fs
		eng.Spawn(fmt.Sprintf("flow%d", i), nil, func(p *core.Process) {
			h, err := model.RouteHandle(fs.Src, fs.Dst)
			if err == nil {
				var a *surf.Action
				if a, err = model.CommunicateHandle(h, fs.Bytes); err == nil {
					err = a.Wait(p)
				}
			}
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			rates[i] = fs.Bytes / eng.Now()
		})
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	return rates, firstErr
}

// RunPacket simulates the flows with a packet-level comparator and
// returns per-flow rates.
func RunPacket(pf *platform.Platform, flows []FlowSpec, v packet.Variant) ([]float64, error) {
	net := packet.New(pf, packet.DefaultConfig(v))
	pflows := make([]*packet.Flow, len(flows))
	for i, fs := range flows {
		f, err := net.AddFlow(fs.Src, fs.Dst, fs.Bytes, 0)
		if err != nil {
			return nil, err
		}
		pflows[i] = f
	}
	net.Run(0)
	rates := make([]float64, len(flows))
	for i, f := range pflows {
		if f.Done() {
			rates[i] = f.Throughput()
		}
	}
	return rates, nil
}

// Run executes the full three-way experiment.
func Run(pf *platform.Platform, flows []FlowSpec, cfg surf.Config) (*Result, error) {
	res := &Result{}

	t0 := time.Now() //lint:allow det-wallclock experiment self-timing: wall-clock speed is a reported result, it never feeds simulated time
	fluid, err := RunFluid(pf, flows, cfg)
	res.FluidWall = time.Since(t0) //lint:allow det-wallclock experiment self-timing: wall-clock speed is a reported result, it never feeds simulated time
	if err != nil {
		return nil, fmt.Errorf("fluid: %w", err)
	}

	t0 = time.Now() //lint:allow det-wallclock experiment self-timing: wall-clock speed is a reported result, it never feeds simulated time
	ns2, err := RunPacket(pf, flows, packet.VariantNS2)
	res.NS2Wall = time.Since(t0) //lint:allow det-wallclock experiment self-timing: wall-clock speed is a reported result, it never feeds simulated time
	if err != nil {
		return nil, fmt.Errorf("ns2: %w", err)
	}

	t0 = time.Now() //lint:allow det-wallclock experiment self-timing: wall-clock speed is a reported result, it never feeds simulated time
	gtnets, err := RunPacket(pf, flows, packet.VariantGTNets)
	res.GTNetsWall = time.Since(t0) //lint:allow det-wallclock experiment self-timing: wall-clock speed is a reported result, it never feeds simulated time
	if err != nil {
		return nil, fmt.Errorf("gtnets: %w", err)
	}

	for i, fs := range flows {
		res.Flows = append(res.Flows, FlowResult{
			FlowSpec:   fs,
			FluidRate:  fluid[i],
			NS2Rate:    ns2[i],
			GTNetsRate: gtnets[i],
		})
	}
	return res, nil
}

// Report prints the experiment in the shape of the paper's figure: one
// row per flow with the three simulated rates (MB/s) and the relative
// error of the fluid model.
func (r *Result) Report(w io.Writer) {
	fmt.Fprintf(w, "%-4s %-8s %-8s %10s %10s %10s %8s %8s\n",
		"flow", "src", "dst", "NS2", "GTNets", "SimGrid", "vs NS2", "vs GTN")
	fmt.Fprintf(w, "%-4s %-8s %-8s %10s %10s %10s %8s %8s\n",
		"", "", "", "(MB/s)", "(MB/s)", "(MB/s)", "", "")
	flows := make([]FlowResult, len(r.Flows))
	copy(flows, r.Flows)
	sort.Slice(flows, func(i, j int) bool { return flows[i].Src < flows[j].Src })
	for i, f := range r.Flows {
		fmt.Fprintf(w, "%-4d %-8s %-8s %10.3f %10.3f %10.3f %7.1f%% %7.1f%%\n",
			i+1, f.Src, f.Dst,
			f.NS2Rate/1e6, f.GTNetsRate/1e6, f.FluidRate/1e6,
			100*f.ErrVsNS2(), 100*f.ErrVsGTNets())
	}
	fmt.Fprintf(w, "\nmean |err| vs NS2: %.1f%%   max |err|: %.1f%%\n",
		100*r.MeanAbsErrVsNS2(), 100*r.MaxAbsErrVsNS2())
	fmt.Fprintf(w, "wall-clock: fluid %v, ns2 %v, gtnets %v (speedup %.0fx)\n",
		r.FluidWall, r.NS2Wall, r.GTNetsWall, r.Speedup())
}
