package surf

import (
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

// duplexLine is a — l1 — r — l2 — b over split-duplex links of 1e6
// bytes/s and no latency. l1's edge names r first, so its declaration
// order (r, a) and its endpoints' name order (a, r) disagree.
func duplexLine(t *testing.T) *platform.Platform {
	t.Helper()
	p := platform.New()
	for _, h := range []string{"a", "b"} {
		if err := p.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddRouter("r"); err != nil {
		t.Fatal(err)
	}
	l1 := &platform.Link{Name: "l1", Bandwidth: 1e6, Policy: platform.SplitDuplex}
	l2 := &platform.Link{Name: "l2", Bandwidth: 1e6, Policy: platform.SplitDuplex}
	if err := p.Connect("r", "a", l1); err != nil {
		t.Fatal(err)
	}
	if err := p.Connect("r", "b", l2); err != nil {
		t.Fatal(err)
	}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSplitDuplexDirections: a split-duplex link gives each direction
// its own capacity, so opposite transfers do not share bandwidth and
// same-direction ones do.
func TestSplitDuplexDirections(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pairs [][2]string // 1e6 bytes each, all started at 0
		want  []float64   // finish times
	}{
		{"one way", [][2]string{{"a", "b"}}, []float64{1}},
		{"opposite directions", [][2]string{{"a", "b"}, {"b", "a"}}, []float64{1, 1}},
		{"same direction", [][2]string{{"a", "b"}, {"a", "b"}}, []float64{2, 2}},
		{"two one way, one back", [][2]string{{"b", "a"}, {"a", "b"}, {"b", "a"}}, []float64{2, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := core.New()
			m := New(e, duplexLine(t), exactCfg())
			var acts []*Action
			fin := finishLog{}
			for _, pr := range tc.pairs {
				a, err := communicate(m, pr[0], pr[1], 1e6)
				if err != nil {
					t.Fatal(err)
				}
				a.SetCompletion(fin)
				acts = append(acts, a)
			}
			if err := e.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
			for i, a := range acts {
				if a.Err() != nil || !approx(fin[a], tc.want[i], 1e-9) {
					t.Errorf("%s->%s: finish %g err %v, want %g", tc.pairs[i][0], tc.pairs[i][1], fin[a], a.Err(), tc.want[i])
				}
			}
		})
	}
}

// failOrder records the order completions arrive in.
type failOrder struct{ got []string }

func (f *failOrder) ActionDone(a *Action, err error) {
	f.got = append(f.got, a.name+": "+err.Error())
}

// TestSplitDuplexFailLinkOrder pins the order FailLink takes a
// split-duplex link's two directions down in: by endpoint name (l1
// toward a, then toward r), not by declaration order, so the b->a
// transfer, which heads to a, fails first. RestoreLink brings both back.
func TestSplitDuplexFailLinkOrder(t *testing.T) {
	e := core.New()
	m := New(e, duplexLine(t), exactCfg())
	rec := &failOrder{}
	for _, pr := range [][2]string{{"a", "b"}, {"b", "a"}} {
		a, err := communicate(m, pr[0], pr[1], 1e9)
		if err != nil {
			t.Fatal(err)
		}
		a.SetCompletion(rec)
	}
	e.Spawn("driver", nil, func(p *core.Process) {
		p.Sleep(0.5)
		if err := m.FailLink("l1"); err != nil {
			t.Error(err)
		}
		if m.LinkUp("l1") || !m.LinkUp("l2") {
			t.Errorf("after FailLink(l1): LinkUp(l1)=%v LinkUp(l2)=%v", m.LinkUp("l1"), m.LinkUp("l2"))
		}
		if err := m.RestoreLink("l1"); err != nil {
			t.Error(err)
		}
		if !m.LinkUp("l1") {
			t.Error("RestoreLink(l1) left it down")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"comm b->a: " + ErrLinkFailed.Error(), "comm a->b: " + ErrLinkFailed.Error()}
	if len(rec.got) != len(want) || rec.got[0] != want[0] || rec.got[1] != want[1] {
		t.Errorf("completion order %q, want %q", rec.got, want)
	}
	if err := m.FailLink("nope"); err == nil {
		t.Error("FailLink of an unknown link succeeded")
	}
}
