package surf

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/pool/pooltest"
)

func poolTestPlatform(t testing.TB, hosts int) *platform.Platform {
	t.Helper()
	pf := platform.New()
	names := make([]string, hosts)
	for i := range names {
		names[i] = string(rune('a' + i))
		if err := pf.AddHost(&platform.Host{Name: names[i], Power: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < hosts; i++ {
		l := &platform.Link{Name: "l" + names[i], Bandwidth: 1e8, Latency: 1e-4 * float64(i)}
		if err := pf.AddRoute(names[0], names[i], []*platform.Link{l}); err != nil {
			t.Fatal(err)
		}
	}
	return pf
}

// TestActionPoolScrubbed drives a randomized churn of computations and
// transfers (with completions, cancels and releases) and asserts that
// every released Action is returned to the free list fully zeroed —
// no stale waiter, callback, heap index, rate, bound or error — and
// that a recycled action exposes only its new parameters.
func TestActionPoolScrubbed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eng := core.New()
	pf := poolTestPlatform(t, 5)
	m := New(eng, pf, DefaultConfig())

	var blank Action
	hosts := []string{"a", "b", "c", "d", "e"}
	for round := 0; round < 40; round++ {
		var acts []*Action
		for i := 0; i < 20; i++ {
			var a *Action
			var err error
			if rng.Intn(2) == 0 {
				a, err = execute(m, hosts[rng.Intn(len(hosts))], 1e5+rng.Float64()*1e6, 1+rng.Float64())
			} else {
				a, err = communicate(m, "a", hosts[1+rng.Intn(len(hosts)-1)], 1e4+rng.Float64()*1e5)
			}
			if err != nil {
				t.Fatal(err)
			}
			if a.Done() || a.Err() != nil || a.remaining <= 0 {
				t.Fatalf("fresh action in terminal state: done=%v err=%v rem=%g", a.Done(), a.Err(), a.remaining)
			}
			if a.heapIdx < 0 || a.compl != nil || a.suspended {
				t.Fatalf("recycled action leaked state: %+v", a)
			}
			acts = append(acts, a)
		}
		// Cancel a few mid-flight, run the rest to completion.
		for _, a := range acts[:5] {
			a.Cancel()
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		for _, a := range acts {
			if !a.Done() {
				t.Fatalf("action %q not done after idle drive", a.name)
			}
			a.Release()
		}
		// Everything in the pool must be indistinguishable from a zero
		// Action.
		for _, p := range m.actPool.Items() {
			if !reflect.DeepEqual(*p, blank) {
				t.Fatalf("pooled action carries stale state: %+v", *p)
			}
		}
	}
	if m.actPool.Len() == 0 {
		t.Fatal("no action was ever pooled")
	}
}

// TestActionPoolingEquivalence replays one randomized workload twice —
// free lists on, then off — and requires the identical completion
// trace (finish times and outcomes): recycling must be unobservable.
func TestActionPoolingEquivalence(t *testing.T) {
	defer func(old bool) { pool.Enabled = old }(pool.Enabled)

	run := func(pooled bool) []float64 {
		pool.Enabled = pooled
		rng := rand.New(rand.NewSource(23))
		eng := core.New()
		pf := poolTestPlatform(t, 5)
		m := New(eng, pf, DefaultConfig())
		hosts := []string{"a", "b", "c", "d", "e"}
		var out []float64
		for round := 0; round < 25; round++ {
			var acts []*Action
			for i := 0; i < 15; i++ {
				var a *Action
				var err error
				if rng.Intn(2) == 0 {
					a, err = execute(m, hosts[rng.Intn(len(hosts))], 1e5+rng.Float64()*1e6, 1)
				} else {
					a, err = communicate(m, "a", hosts[1+rng.Intn(len(hosts)-1)], 1e4+rng.Float64()*1e5)
				}
				if err != nil {
					t.Fatal(err)
				}
				acts = append(acts, a)
			}
			if err := eng.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
			for _, a := range acts {
				out = append(out, a.finish)
				a.Release()
			}
		}
		return out
	}

	pooled := run(true)
	fresh := run(false)
	if len(pooled) != len(fresh) {
		t.Fatalf("trace lengths differ: %d vs %d", len(pooled), len(fresh))
	}
	for i := range pooled {
		if pooled[i] != fresh[i] {
			t.Fatalf("completion %d diverged: pooled %g, fresh %g", i, pooled[i], fresh[i])
		}
	}
}

// TestReleaseGuards pins the Release contract: releasing an in-flight
// action is a no-op, and a released action is actually recycled by the
// next creation.
func TestReleaseGuards(t *testing.T) {
	eng := core.New()
	pf := poolTestPlatform(t, 2)
	m := New(eng, pf, DefaultConfig())

	a, err := execute(m, "a", 1e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Release() // in flight: must be ignored
	if m.actPool.Len() != 0 {
		t.Fatal("in-flight action was pooled")
	}
	a.Cancel()
	if !a.Done() {
		t.Fatal("canceled action not done")
	}
	a.Release()
	if m.actPool.Len() != 1 {
		t.Fatalf("pool has %d entries, want 1", m.actPool.Len())
	}
	b, err := execute(m, "b", 1e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatal("released action was not recycled by the next Execute")
	}
	if b.name != "exec@b" || b.Done() || b.Err() != nil {
		t.Fatalf("recycled action carries stale identity: name=%q done=%v err=%v", b.name, b.Done(), b.Err())
	}
}

// churnRelay is one of TestRecycledVariableKeepsSolveOrder's relays:
// each of its computes ends in a handler that starts and at once
// cancels a compute, re-weights a long-running compute, and starts the
// relay's next compute.
type churnRelay struct {
	m      *Model
	h      *HostHandle
	name   string
	flops  float64
	rounds int
	long   []*Action
	rng    *rand.Rand
	log    *bytes.Buffer
}

func (r *churnRelay) ActionDone(a *Action, err error) {
	fmt.Fprintf(r.log, "%s %d %016x %v\n", r.name, r.rounds, math.Float64bits(a.finish), err)
	a.Release()
	if r.rounds == 0 {
		return
	}
	r.rounds--
	x, _ := r.m.ExecuteHandle(r.h, 1e6, 1.7)
	x.Cancel() // its variable leaves the system still queued for the solve
	x.Release()
	if l := r.long[r.rng.Intn(len(r.long))]; !l.Done() {
		reweight(l, 0.5+r.rng.Float64()) // queues a second variable
	}
	next, _ := r.m.ExecuteHandle(r.h, r.flops, 0.5+r.rng.Float64()) // reuses the cancelled variable
	next.SetCompletion(r)
}

type logDone struct {
	name string
	log  *bytes.Buffer
}

func (d logDone) ActionDone(a *Action, err error) {
	fmt.Fprintf(d.log, "%s %016x %v\n", d.name, math.Float64bits(a.finish), err)
	a.Release()
}

// TestRecycledVariableKeepsSolveOrder pins the order leak pooling can
// cause: a maxmin variable removed while still queued for the next
// solve is handed to the very next NewVariable, after another variable
// was queued. Unless RemoveVariable dequeues it, the recycled variable
// keeps its earlier queue slot, the solve walks the CPU's variables in
// another order than an unpooled run does, and a rate sum can round
// differently: without dequeueVar the two runs part by one ulp. Three
// long computes share one CPU with five relays; the weights are drawn
// at random, since sums of round weights came out alike in either
// order.
func TestRecycledVariableKeepsSolveOrder(t *testing.T) {
	pooltest.Replay(t, 1, func() []byte {
		eng := core.New()
		m := New(eng, poolTestPlatform(t, 1), DefaultConfig())
		h := m.HostHandle("a")
		var log bytes.Buffer
		rng := rand.New(rand.NewSource(1))
		var long []*Action
		for i := 0; i < 3; i++ {
			a, err := m.ExecuteHandle(h, 3e10+1e9*float64(i), 0.9+0.45*float64(i))
			if err != nil {
				t.Fatal(err)
			}
			a.SetCompletion(logDone{name: fmt.Sprintf("long%d", i), log: &log})
			long = append(long, a)
		}
		for i := 0; i < 5; i++ {
			r := &churnRelay{m: m, h: h, name: fmt.Sprintf("relay%d", i), flops: 7e8 + 3.1e8*float64(i), rounds: 6, long: long, rng: rng, log: &log}
			a, err := m.ExecuteHandle(h, r.flops, 1)
			if err != nil {
				t.Fatal(err)
			}
			a.SetCompletion(r)
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return log.Bytes()
	})
}
