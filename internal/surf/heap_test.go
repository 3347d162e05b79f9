package surf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

// TestActionHeapOps drives the indexed heap with random push/fix/remove
// sequences and checks the min and the index bookkeeping against a
// linear scan after every operation.
func TestActionHeapOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h actionHeap
	var live []*Action
	check := func() {
		t.Helper()
		min := math.Inf(1)
		for _, a := range live {
			if k := a.eventKey(); k < min {
				min = k
			}
		}
		if len(h) != len(live) {
			t.Fatalf("heap has %d entries, want %d", len(h), len(live))
		}
		for i, e := range h {
			if e.a.heapIdx != i {
				t.Fatalf("heap[%d].heapIdx = %d", i, e.a.heapIdx)
			}
			if e.key != e.a.eventKey() {
				t.Fatalf("heap[%d] cached key %g, action key %g", i, e.key, e.a.eventKey())
			}
			if i > 0 {
				if p := (i - 1) / heapArity; h[p].key > h[i].key {
					t.Fatalf("heap invariant broken at %d: parent %g > child %g", i, h[p].key, h[i].key)
				}
			}
		}
		if len(h) > 0 && h[0].key != min {
			t.Fatalf("heap min %g, linear rescan min %g", h[0].key, min)
		}
	}
	for op := 0; op < 2000; op++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(live) == 0:
			a := &Action{heapIdx: -1, estFinish: rng.Float64() * 100}
			if rng.Intn(4) == 0 {
				a.latUntil = rng.Float64() * 100
			}
			h.push(a)
			live = append(live, a)
		case r < 7:
			a := live[rng.Intn(len(live))]
			a.latUntil = 0
			a.estFinish = rng.Float64() * 100
			if rng.Intn(6) == 0 {
				a.estFinish = math.Inf(1) // starved/suspended
			}
			h.fix(a.heapIdx)
		default:
			i := rng.Intn(len(live))
			a := live[i]
			h.remove(a.heapIdx)
			if a.heapIdx != -1 {
				t.Fatalf("removed action still has heapIdx %d", a.heapIdx)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		check()
	}
}

// heapChecker is a second core.Model registered behind the surf model.
// On every engine round it forces a linear rescan of all in-flight
// actions and asserts that the heap-based NextEventTime returned the
// identical event time; after each AdvanceTo it asserts that exactly
// the actions a linear sweep would have completed (or moved to the
// bandwidth phase) were processed.
type heapChecker struct {
	t *testing.T
	m *Model

	snapshot []heapSnap
	checks   int
	sweeps   int
}

type heapSnap struct {
	a         *Action
	latUntil  float64
	estFinish float64
}

func (hc *heapChecker) NextEventTime(now float64) float64 {
	t, m := hc.t, hc.m
	// Heap invariant and index bookkeeping.
	for i, e := range m.heap {
		a := e.a
		if a.heapIdx != i {
			t.Fatalf("t=%g: heap[%d].heapIdx = %d", now, i, a.heapIdx)
		}
		if a.done {
			t.Fatalf("t=%g: done action %q still in heap", now, a.name)
		}
		if e.key != a.eventKey() {
			t.Fatalf("t=%g: heap[%d] cached key %g, action key %g", now, i, e.key, a.eventKey())
		}
		if i > 0 {
			if p := (i - 1) / heapArity; m.heap[p].key > m.heap[i].key {
				t.Fatalf("t=%g: heap invariant broken at %d", now, i)
			}
		}
	}
	// Forced linear rescan: the heap peek must agree exactly.
	min := math.Inf(1)
	for _, e := range m.heap {
		if k := e.a.eventKey(); k < min {
			min = k
		}
	}
	heapMin := math.Inf(1)
	if len(m.heap) > 0 {
		heapMin = m.heap[0].key
	}
	if heapMin != min {
		t.Fatalf("t=%g: heap NextEventTime %g, linear rescan %g", now, heapMin, min)
	}
	// Snapshot the pre-sweep state; nothing can mutate actions between
	// this call and AdvanceTo (engine contract).
	hc.snapshot = hc.snapshot[:0]
	for _, e := range m.heap {
		a := e.a
		hc.snapshot = append(hc.snapshot, heapSnap{a: a, latUntil: a.latUntil, estFinish: a.estFinish})
	}
	hc.checks++
	return min
}

func (hc *heapChecker) AdvanceTo(now, t float64) {
	// Runs right after the surf model's AdvanceTo (same registration
	// order): compare against what a linear sweep of the snapshot would
	// have done at time t.
	for _, s := range hc.snapshot {
		expectComplete := s.latUntil <= 0 && s.estFinish <= t+1e-12*(1+t)
		expectLatEnd := s.latUntil > 0 && t >= s.latUntil-eps
		switch {
		case expectComplete != s.a.done:
			hc.t.Fatalf("t=%g: action %q done=%v, linear sweep says %v (latUntil=%g estFinish=%g)",
				t, s.a.name, s.a.done, expectComplete, s.latUntil, s.estFinish)
		case expectLatEnd && s.a.latUntil != 0:
			hc.t.Fatalf("t=%g: action %q still in latency phase (latUntil=%g), linear sweep would have ended it",
				t, s.a.name, s.a.latUntil)
		case !expectLatEnd && s.latUntil > 0 && s.a.latUntil != s.latUntil:
			hc.t.Fatalf("t=%g: action %q latency end moved %g -> %g without being due",
				t, s.a.name, s.latUntil, s.a.latUntil)
		case !expectComplete && s.a.heapIdx < 0:
			hc.t.Fatalf("t=%g: action %q left the heap without completing", t, s.a.name)
		}
	}
	hc.sweeps++
}

// TestHeapEquivalenceRandomized drives a randomized mutation/advance
// sequence — transfers and computations starting, completing, being
// canceled, suspended, reprioritized one at a time and in bursts of up
// to the whole population, plus link/host failures — with the
// heapChecker cross-validating every NextEventTime and AdvanceTo
// against a forced linear rescan.
func TestHeapEquivalenceRandomized(t *testing.T) {
	pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(10, 99))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New()
	m := New(eng, pf, DefaultConfig())
	hc := &heapChecker{t: t, m: m}
	eng.AddModel(hc)

	hosts := pf.Hosts()
	links := pf.Links()
	rng := rand.New(rand.NewSource(42))
	var live []*Action
	completions := 0
	bigBursts, smallBursts := 0, 0
	failedLinks := map[string]bool{}

	eng.Spawn("driver", nil, func(p *core.Process) {
		for op := 0; op < 600; op++ {
			// Prune finished actions.
			n := 0
			for _, a := range live {
				if !a.Done() {
					live[n] = a
					n++
				} else {
					completions++
				}
			}
			live = live[:n]

			switch r := rng.Intn(23); {
			case r < 7: // start a transfer
				src := hosts[rng.Intn(len(hosts))].Name
				dst := hosts[rng.Intn(len(hosts))].Name
				if src == dst {
					continue
				}
				bytes := math.Pow(10, 2+rng.Float64()*5)
				if a, err := communicate(m, src, dst, bytes); err == nil && !a.Done() {
					live = append(live, a)
				}
			case r < 11: // start a computation
				h := hosts[rng.Intn(len(hosts))].Name
				flops := math.Pow(10, 5+rng.Float64()*4)
				if a, err := execute(m, h, flops, 1+rng.Float64()*3); err == nil && !a.Done() {
					live = append(live, a)
				}
			case r < 13 && len(live) > 0: // cancel
				live[rng.Intn(len(live))].Cancel()
			case r < 15 && len(live) > 0: // suspend / resume
				a := live[rng.Intn(len(live))]
				if a.Suspended() {
					a.Resume()
				} else {
					a.Suspend()
				}
			case r < 17 && len(live) > 0: // reprioritize
				live[rng.Intn(len(live))].SetPriority(0.5 + rng.Float64()*4)
			case r >= 20:
				// Top the population up to a few dozen, then re-rate between
				// n/8 and all n in-flight actions in one instant, so a single
				// refresh re-keys a burst: small bursts sift one by one, large
				// ones rebuild the heap, and both are held to the linear rescan.
				for want := 12 + rng.Intn(40); len(live) < want; {
					h := hosts[rng.Intn(len(hosts))].Name
					if a, err := execute(m, h, math.Pow(10, 7+rng.Float64()*2), 1+rng.Float64()*3); err == nil {
						live = append(live, a)
					}
				}
				n := len(live)
				k := n/8 + rng.Intn(n-n/8+1)
				if bulkCheaper(k, n) {
					bigBursts++
				} else {
					smallBursts++
				}
				for _, i := range rng.Perm(n)[:k] {
					switch a := live[i]; {
					case a.Suspended():
						a.Resume()
					case rng.Intn(3) == 0:
						a.Suspend()
					default:
						a.SetPriority(0.5 + rng.Float64()*4)
					}
				}
			default: // link failure / repair
				l := links[rng.Intn(len(links))].Name
				if failedLinks[l] {
					delete(failedLinks, l)
					if err := m.RestoreLink(l); err != nil {
						t.Errorf("RestoreLink(%s): %v", l, err)
					}
				} else {
					failedLinks[l] = true
					if err := m.FailLink(l); err != nil {
						t.Errorf("FailLink(%s): %v", l, err)
					}
				}
			}
			p.Sleep(rng.ExpFloat64() * 0.02)
		}
		for _, a := range live {
			a.Cancel()
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if hc.checks < 100 || hc.sweeps < 50 {
		t.Fatalf("checker barely exercised: %d checks, %d sweeps", hc.checks, hc.sweeps)
	}
	if bigBursts < 10 || smallBursts < 10 {
		t.Fatalf("re-rate bursts on the two sides of the bulk crossover: %d large, %d small; want at least 10 of each", bigBursts, smallBursts)
	}
	if completions < 50 {
		t.Fatalf("only %d actions completed; workload too weak to trust the equivalence run", completions)
	}
	if len(m.heap) != 0 {
		t.Errorf("%d actions leaked in the heap after the run", len(m.heap))
	}
}
