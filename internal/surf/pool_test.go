package surf

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/pool"
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
	if !pool.Enabled {
		t.Skip("pooling disabled (-tags=nopool)")
	}
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
			if a.Done() || a.Err() != nil || a.Remaining() <= 0 {
				t.Fatalf("fresh action in terminal state: done=%v err=%v rem=%g", a.Done(), a.Err(), a.Remaining())
			}
			if a.heapIdx < 0 || a.waiter != nil || a.compl != nil || a.suspended {
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
				t.Fatalf("action %q not done after idle drive", a.Name())
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
				out = append(out, a.Finish())
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
	if !pool.Enabled {
		t.Skip("pooling disabled (-tags=nopool)")
	}
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
	if b.Name() != "exec@b" || b.Done() || b.Err() != nil {
		t.Fatalf("recycled action carries stale identity: name=%q done=%v err=%v", b.Name(), b.Done(), b.Err())
	}
}
