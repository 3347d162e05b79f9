package msg

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/surf"
)

// TestRendezvousPoolingEquivalence runs the same Put/Get workload with
// the rendezvous free lists on and off and requires identical
// completion times: recycling pending records (and the
// transfer actions they release) must be unobservable.
func TestRendezvousPoolingEquivalence(t *testing.T) {
	defer func(old bool) { pool.Enabled = old }(pool.Enabled)

	run := func(pooled bool) []float64 {
		pool.Enabled = pooled
		pf := platform.New()
		for _, h := range []string{"a", "b"} {
			if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
				t.Fatal(err)
			}
		}
		if err := pf.AddRoute("a", "b", []*platform.Link{
			{Name: "l", Bandwidth: 1e8, Latency: 1e-4},
		}); err != nil {
			t.Fatal(err)
		}
		env := NewEnvironment(pf, surf.DefaultConfig())
		var times []float64
		if _, err := env.NewProcess("recv", "b", func(p *Process) error {
			for i := 0; i < 50; i++ {
				if _, err := p.Get(1); err != nil {
					return err
				}
				times = append(times, p.Now())
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := env.NewProcess("send", "a", func(p *Process) error {
			for i := 0; i < 50; i++ {
				if err := p.Put(NewTask("t", 0, 1e5), "b", 1); err != nil {
					return err
				}
				if err := p.Execute(NewTask("c", 1e6, 0)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if env.pools[send].Len() == 0 && pooled {
			t.Fatal("no send record was ever pooled")
		}
		return times
	}

	pooled := run(true)
	fresh := run(false)
	if len(pooled) != len(fresh) {
		t.Fatalf("trace lengths differ: %d vs %d", len(pooled), len(fresh))
	}
	for i := range pooled {
		if pooled[i] != fresh[i] {
			t.Fatalf("delivery %d diverged: pooled %g, fresh %g", i, pooled[i], fresh[i])
		}
	}
}
