// TestPinInstr holds what instr writes and reads to sha256 digests:
// the Paje bytes of two traced runs (the seeded msg backbone workload,
// and a random DAG placed by min-min under a host-failure campaign with
// the reschedule policy), the MetricsInto → WriteJSON snapshot of the
// same two runs in each pool mode, and ReadTrace's decoded TraceData on
// both committed CLI goldens. The process-wide core.worker_pool triad is
// stripped from the snapshots: it counts whatever ran before in this
// binary.
package simgrid

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/faults"
	"repro/internal/instr"
	"repro/internal/platform"
	"repro/internal/pool/pooltest"
	"repro/internal/simdag"
	"repro/internal/surf"
)

const (
	pinBackbonePaje          = "52dcc289b6368fff0963b3f27bb8ebd56e6df3ec7abd83c2684e2becd7602293"
	pinBackboneMetricsPooled = "0585a661366d27b80dade0c19ae3d0c54881cb68f4acf5bb075dd8d9dd6bf406"
	pinBackboneMetricsFresh  = "a5f4bfd39c9e1931f33967fda5f5948c2aaa1fcfa9a5522fe2028472c31f9566"
	pinDAGPaje               = "1b7c599078a31613051dbb2f60c211dbc602d7e067c37b00fb52d1617726fdca"
	pinDAGMetricsPooled      = "b47d471df260f01500c596f26873d2d99aedfdcf4c36c143ba316549b9318210"
	pinDAGMetricsFresh       = "74ecf5d3ac5550a36a728d08b77b5a29c94bbf34c9ad60509560f71b96445a8b"
	pinBagRead               = "19bd68f06d0febdce9705068d64f2103ab1d3a12b09aefc4a3f795d5c17eb7bd"
	pinSampleRead            = "a346f8e02344e5fa942b81359374590a6b91bd7565b0eb0d393bddfe2d4b0eda"
)

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// snapshot writes what metricsInto collects as JSON, minus the
// process-wide core.worker_pool lines.
func snapshot(t *testing.T, metricsInto ...func(*instr.Registry)) []byte {
	t.Helper()
	r := instr.NewRegistry()
	for _, f := range metricsInto {
		f(r)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`  "core.worker_pool.`)) {
			out = append(out, line...)
		}
	}
	return out
}

// tracedFaultyDAG runs a 6×8 random layered DAG placed by min-min on a
// four-host cluster while three of the hosts fail and recover, with
// the reschedule policy on and tracing enabled. It returns the trace
// bytes and the metrics snapshot.
func tracedFaultyDAG(t *testing.T) (paje, metrics []byte) {
	t.Helper()
	pf, hosts, err := platform.NewCluster(platform.ClusterConfig{
		Prefix: "n", Hosts: 4, Power: 1e9, Bandwidth: 1e8, Latency: 1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := simdag.New(pf, surf.DefaultConfig())
	var buf bytes.Buffer
	s.EnableTrace(instr.NewTrace(&buf))
	if _, err := simdag.RandomLayered(s, simdag.DefaultRandomConfig(6, 8, 7)); err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Compile(7, faults.Params{
		Classes: []faults.Class{{Hosts: hosts[1:], MTBF: 1, MTTR: 0.3}},
		Horizon: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.Arm(sched, s.Model())
	if err != nil {
		t.Fatal(err)
	}
	s.SetReschedulePolicy(hosts)
	if err := simdag.ScheduleMinMin(s, hosts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	if s.Reschedules() == 0 || inj.Applied() == 0 {
		t.Fatalf("reschedules=%d fault events=%d: the run no longer exercises the policy", s.Reschedules(), inj.Applied())
	}
	if err := s.Trace().Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), snapshot(t, s.MetricsInto, inj.MetricsInto)
}

// decoded renders a TraceData field by field, floats as their bits.
func decoded(td *instr.TraceData) []byte {
	var b bytes.Buffer
	for _, c := range td.Containers {
		fmt.Fprintf(&b, "C %q %q %q\n", c.Name, c.Type, c.Parent)
	}
	for _, iv := range td.Intervals {
		fmt.Fprintf(&b, "I %q %q %q %016x %016x %v\n", iv.Container, iv.Type, iv.Value,
			math.Float64bits(iv.Start), math.Float64bits(iv.End), iv.Open)
	}
	for _, l := range td.Links {
		fmt.Fprintf(&b, "L %q %q %q %q %q %016x %016x\n", l.Type, l.Src, l.Dst, l.Value, l.Key,
			math.Float64bits(l.Start), math.Float64bits(l.End))
	}
	fmt.Fprintf(&b, "E %016x\n", math.Float64bits(td.EndTime))
	return b.Bytes()
}

func TestPinInstr(t *testing.T) {
	check := func(t *testing.T, what string, got []byte, want string) {
		t.Helper()
		if d := sha(got); d != want {
			t.Errorf("%s digest %s, want %s", what, d, want)
		}
	}
	t.Run("backbone", func(t *testing.T) {
		paje := pooltest.Replay(t, 2, func() []byte { return runTracedWorkload(t, 20, 5, 12345) })
		check(t, "paje", paje, pinBackbonePaje)
		pooled, fresh := pooltest.ReplayPerMode(t, 2, func() []byte {
			env, _, err := tracedBackbone(determinismPlatform(t, 20), 20, 5, 12345)
			if err != nil {
				t.Fatal(err)
			}
			return snapshot(t, env.MetricsInto)
		})
		check(t, "pooled metrics", pooled, pinBackboneMetricsPooled)
		check(t, "unpooled metrics", fresh, pinBackboneMetricsFresh)
	})
	t.Run("dag-faults", func(t *testing.T) {
		paje := pooltest.Replay(t, 2, func() []byte { p, _ := tracedFaultyDAG(t); return p })
		check(t, "paje", paje, pinDAGPaje)
		pooled, fresh := pooltest.ReplayPerMode(t, 2, func() []byte { _, m := tracedFaultyDAG(t); return m })
		check(t, "pooled metrics", pooled, pinDAGMetricsPooled)
		check(t, "unpooled metrics", fresh, pinDAGMetricsFresh)
	})
	for _, g := range []struct{ path, want string }{
		{"cmd/simgrid-run/testdata/bag.paje.golden", pinBagRead},
		{"cmd/simdag-run/testdata/sample.paje.golden", pinSampleRead},
	} {
		raw, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		td, err := instr.ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", g.path, err)
		}
		check(t, "ReadTrace "+g.path, decoded(td), g.want)
	}
}
