package instr

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Add("z.count", 3)
		r.Add("a.count", 1)
		r.Set("m.depth", 4.5)
		r.Max("m.depth", 2) // below current: no effect
		r.Max("peak", 3)
		r.Max("peak", 1)
		r.Add("a.count", 1) // counters accumulate
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
	for _, want := range []string{`"a.count": 2`, `"z.count": 3`, `"m.depth": 4.5`, `"peak": 3`, `"pool.x.hit": 10`, `"pool.x.miss": 2`, `"pool.x.steady_free": 7`} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Add("x", 1)
	r.Set("x", 1)
	r.Max("x", 2)
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
func writeSample(t testing.TB) []byte {
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

// TestTraceAllocFree pins that steady-state emission allocates
// nothing: each line is formatted straight into the output buffer.
func TestTraceAllocFree(t *testing.T) {
	tr := NewTrace(io.Discard)
	ct := tr.DefineContainerType("0", "HOST")
	st := tr.DefineStateType(ct, "S")
	vt := tr.DefineVariableType(ct, "V")
	lt := tr.DefineLinkType("0", ct, ct, "L")
	c := tr.CreateContainer(0, ct, "0", "h")
	now := 0.0
	allocs := testing.AllocsPerRun(2000, func() {
		now += 0.25
		tr.SetState(now, st, c, "v")
		tr.PushState(now, st, c, "p")
		tr.PopState(now, st, c)
		tr.SetVariable(now, vt, c, now/3)
		tr.StartLink(now, lt, "0", c, "m", "k")
		tr.EndLink(now, lt, "0", c, "m", "k")
	})
	if allocs != 0 {
		t.Fatalf("steady-state emission allocates %.1f times per round, want 0", allocs)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadTraceMatchesOldestLink pins EndLink's pairing: the oldest
// open link with the same type and key, whatever else is open.
func TestReadTraceMatchesOldestLink(t *testing.T) {
	var b bytes.Buffer
	tr := NewTrace(&b)
	ct := tr.DefineContainerType("0", "P")
	l1 := tr.DefineLinkType("0", ct, ct, "A")
	l2 := tr.DefineLinkType("0", ct, ct, "B")
	x := tr.CreateContainer(0, ct, "0", "x")
	y := tr.CreateContainer(0, ct, "0", "y")
	tr.StartLink(1, l1, "0", x, "first", "k")
	tr.StartLink(2, l2, "0", y, "other type", "k")
	tr.StartLink(3, l1, "0", y, "second", "k")
	tr.EndLink(4, l1, "0", y, "", "k")
	tr.EndLink(5, l1, "0", x, "", "k")
	tr.EndLink(6, l1, "0", x, "", "k") // nothing left to end
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	td, err := ReadTrace(&b)
	if err != nil {
		t.Fatal(err)
	}
	want := []LinkSpan{
		{Type: "A", Src: "x", Dst: "y", Value: "first", Key: "k", Start: 1, End: 4},
		{Type: "A", Src: "y", Dst: "x", Value: "second", Key: "k", Start: 3, End: 5},
	}
	if len(td.Links) != len(want) || td.Links[0] != want[0] || td.Links[1] != want[1] {
		t.Fatalf("links = %+v, want %+v", td.Links, want)
	}
}

// FuzzReadTrace feeds ReadTrace arbitrary bytes: every input decodes or
// returns an error, never panics. The committed corpus
// (testdata/fuzz/FuzzReadTrace) holds golden fragments and the
// malformed cases: an unterminated quote, a bad id, a missing
// timestamp, EndLink without a start, PopState on an empty stack and a
// destroy of an unknown container.
func FuzzReadTrace(f *testing.F) {
	f.Add(writeSample(f))
	f.Fuzz(func(t *testing.T, raw []byte) {
		td, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		for _, iv := range td.Intervals {
			if iv.Open && iv.End != td.EndTime {
				t.Fatalf("open interval %+v does not end at the trace's end %v", iv, td.EndTime)
			}
		}
	})
}

// BenchmarkReadTrace reads traces of n containers, each holding one
// pushed state and starting one message link; every link ends, then
// every container is destroyed.
func BenchmarkReadTrace(b *testing.B) {
	for _, n := range []int{5000, 10000, 20000} {
		var buf bytes.Buffer
		tr := NewTrace(&buf)
		ct := tr.DefineContainerType("0", "P")
		st := tr.DefineStateType(ct, "S")
		lt := tr.DefineLinkType("0", ct, ct, "M")
		conts := make([]string, n)
		for i := range conts {
			conts[i] = tr.CreateContainer(0, ct, "0", "p"+strconv.Itoa(i))
			tr.PushState(0, st, conts[i], "run")
		}
		for i, c := range conts {
			tr.StartLink(1, lt, "0", c, "m", strconv.Itoa(i))
		}
		for i, c := range conts {
			tr.EndLink(2, lt, "0", c, "m", strconv.Itoa(i))
		}
		for _, c := range conts {
			tr.DestroyContainer(3, ct, c)
		}
		if err := tr.Close(); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ReadTrace(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
		})
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
