package instr

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/pool"
)

func TestRegistryJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("z.count").Add(3)
		r.Counter("a.count").Inc()
		r.Gauge("m.depth").Set(4.5)
		r.Gauge("m.depth").SetMax(2) // below current: no effect
		w := r.Weighted("util")
		w.Observe(0, 1)
		w.Observe(2, 0.5)
		w.Observe(4, 0)
		r.SetPool("pool.x", PoolStat{Hit: 10, Miss: 2, Free: 7})
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("snapshot not deterministic:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	out := b1.String()
	// Keys must come out sorted.
	if strings.Index(out, `"a.count"`) > strings.Index(out, `"z.count"`) {
		t.Fatalf("keys not sorted:\n%s", out)
	}
	for _, want := range []string{`"a.count": 1`, `"z.count": 3`, `"m.depth": 4.5`, `"util": 3`, `"pool.x.hit": 10`, `"pool.x.miss": 2`, `"pool.x.steady_free": 7`} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestWeightedIntegral(t *testing.T) {
	r := NewRegistry()
	w := r.Weighted("depth")
	w.Observe(1, 2)  // depth 2 from t=1
	w.Observe(3, 5)  // 2*2=4 accrued
	w.Observe(3, 7)  // zero elapsed: no accrual, value replaced
	w.Observe(10, 0) // 7*7=49 accrued
	if got := w.Integral(); got != 53 {
		t.Fatalf("Integral = %v, want 53", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Weighted("x").Observe(1, 1)
	r.SetPool("x", PoolStat{})
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "{}\n" {
		t.Fatalf("nil registry snapshot = %q", b.String())
	}

	var tr *Trace
	if a := tr.DefineContainerType("0", "HOST"); a != "" {
		t.Fatalf("nil trace alias = %q", a)
	}
	tr.CreateContainer(0, "t0", "0", "h")
	tr.SetState(0, "t1", "c0", "on")
	tr.PushState(0, "t1", "c0", "x")
	tr.PopState(1, "t1", "c0")
	tr.SetVariable(1, "t2", "c0", 0.5)
	tr.StartLink(1, "t3", "c0", "c0", "m", "k")
	tr.EndLink(2, "t3", "c0", "c0", "m", "k")
	tr.DestroyContainer(2, "t0", "c0")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var p *Profiler
	t0 := p.Begin()
	p.End(PhaseSolve, t0)
	if p.Total(PhaseSolve) != 0 || p.Count(PhaseSolve) != 0 {
		t.Fatal("nil profiler accumulated")
	}
	if err := p.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
}

// writeSample emits a small but representative trace and returns its
// bytes.
func writeSample(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	tr := NewTrace(&b)
	host := tr.DefineContainerType("0", "HOST")
	proc := tr.DefineContainerType(host, "PROCESS")
	pstate := tr.DefineStateType(proc, "PSTATE")
	util := tr.DefineVariableType(host, "utilization")
	msg := tr.DefineLinkType("0", proc, proc, "MSG")
	tr.DefineEntityValue(pstate, "compute")
	h := tr.CreateContainer(0, host, "0", "node one")
	p1 := tr.CreateContainer(0, proc, h, "worker-1")
	p2 := tr.CreateContainer(0, proc, h, "worker-2")
	tr.PushState(0, pstate, p1, "compute")
	tr.SetVariable(0.5, util, h, 0.75)
	tr.StartLink(1, msg, "0", p1, "task", "k0")
	tr.PopState(1.5, pstate, p1)
	tr.EndLink(2, msg, "0", p2, "task", "k0")
	tr.SetState(2, pstate, p2, "running")
	tr.SetState(3, pstate, p2, "blocked")
	tr.DestroyContainer(4, proc, p2)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestTraceRoundTrip(t *testing.T) {
	raw := writeSample(t)
	if !bytes.HasPrefix(raw, []byte("%EventDef PajeDefineContainerType 0\n")) {
		t.Fatalf("missing header:\n%s", raw[:80])
	}
	td, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Containers) != 3 {
		t.Fatalf("containers = %+v", td.Containers)
	}
	if td.Containers[0].Name != "node one" || td.Containers[0].Type != "HOST" {
		t.Fatalf("container[0] = %+v", td.Containers[0])
	}
	if td.Containers[1].Parent != "node one" || td.Containers[1].Type != "PROCESS" {
		t.Fatalf("container[1] = %+v", td.Containers[1])
	}
	want := map[string]StateInterval{
		"worker-1/compute": {Container: "worker-1", Type: "PSTATE", Value: "compute", Start: 0, End: 1.5},
		"worker-2/running": {Container: "worker-2", Type: "PSTATE", Value: "running", Start: 2, End: 3},
		"worker-2/blocked": {Container: "worker-2", Type: "PSTATE", Value: "blocked", Start: 3, End: 4},
	}
	if len(td.Intervals) != len(want) {
		t.Fatalf("intervals = %+v", td.Intervals)
	}
	for _, iv := range td.Intervals {
		w, ok := want[iv.Container+"/"+iv.Value]
		if !ok || iv != w {
			t.Errorf("unexpected interval %+v (want %+v)", iv, w)
		}
	}
	if len(td.Links) != 1 {
		t.Fatalf("links = %+v", td.Links)
	}
	l := td.Links[0]
	if l.Src != "worker-1" || l.Dst != "worker-2" || l.Start != 1 || l.End != 2 || l.Value != "task" {
		t.Fatalf("link = %+v", l)
	}
	if td.EndTime != 4 {
		t.Fatalf("EndTime = %v", td.EndTime)
	}
}

func TestTraceBytesStable(t *testing.T) {
	first := writeSample(t)
	for i := 0; i < 4; i++ {
		if got := writeSample(t); !bytes.Equal(first, got) {
			t.Fatalf("run %d differs", i+2)
		}
	}
}

func TestEventPoolRecycles(t *testing.T) {
	if !pool.Enabled {
		t.Skip("pooling disabled by build tag")
	}
	var b bytes.Buffer
	tr := NewTrace(&b)
	ct := tr.DefineContainerType("0", "HOST")
	st := tr.DefineStateType(ct, "S")
	c := tr.CreateContainer(0, ct, "0", "h")
	before := EventPoolStats()
	// Fill well past one flush batch so recycled records get reused.
	for i := 0; i < 3*flushBatch; i++ {
		tr.SetState(float64(i), st, c, "v")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	after := EventPoolStats()
	if after.Hit <= before.Hit {
		t.Fatalf("pool never hit: before=%+v after=%+v", before, after)
	}
	if after.Free == 0 {
		t.Fatal("pool empty after flush")
	}
}

func TestProfilerAccumulates(t *testing.T) {
	p := NewProfiler()
	t0 := p.Begin()
	p.End(PhaseAdvance, t0)
	if p.Count(PhaseAdvance) != 1 {
		t.Fatalf("count = %d", p.Count(PhaseAdvance))
	}
	var b bytes.Buffer
	if err := p.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"solve", "advance", "sweep", "dispatch", "total"} {
		if !strings.Contains(b.String(), s) {
			t.Errorf("report missing %q:\n%s", s, b.String())
		}
	}
}
