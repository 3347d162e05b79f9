package surf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

// perPopModel is the pre-batching completion path, kept as the test
// reference the batched AdvanceTo is compared against: one heap pop
// and one complete() per due action. It shares classifyDue and
// complete with the model, so only the event machinery (popMin/push
// against collectDue/removeBatch/bulkPush) differs.
type perPopModel struct{ *Model }

// newPerPop is New with the reference AdvanceTo registered in place of
// the model's own.
func newPerPop(eng *core.Engine, pf *platform.Platform, cfg Config) *Model {
	m := build(eng, pf, cfg)
	eng.AddModel(perPopModel{m})
	return m
}

func (r perPopModel) AdvanceTo(now, t float64) {
	m := r.Model
	m.refresh()
	maxKey := t + eps + 1e-12*(1+t)
	var finished, repush []*Action
	for len(m.heap) > 0 && m.heap[0].key <= maxKey {
		finished, repush = m.classifyDue(m.heap.popMin(), t, finished, repush)
	}
	for _, a := range repush {
		m.heap.push(a)
	}
	sortActions(finished)
	for _, a := range finished {
		a.remaining = 0
		a.lastSync = t
		m.complete(a, nil)
	}
}

// popMin removes and returns the action with the earliest event.
func (h *actionHeap) popMin() *Action {
	a := (*h)[0].a
	h.remove(0)
	return a
}

// TestActionHeapBulkOps fuzzes collectDue / removeBatch / bulkPush
// against linear-scan models of the same operations, checking the heap
// invariant and index bookkeeping after every step.
func TestActionHeapBulkOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h actionHeap
	live := map[*Action]bool{}
	check := func() {
		t.Helper()
		if len(h) != len(live) {
			t.Fatalf("heap has %d entries, want %d", len(h), len(live))
		}
		for i, e := range h {
			if e.a.heapIdx != i {
				t.Fatalf("heap[%d].heapIdx = %d", i, e.a.heapIdx)
			}
			if !live[e.a] {
				t.Fatalf("heap[%d] is not a live action", i)
			}
			if e.key != e.a.eventKey() {
				t.Fatalf("heap[%d] cached key %g, action key %g", i, e.key, e.a.eventKey())
			}
			if i > 0 {
				if p := (i - 1) / heapArity; h[p].key > h[i].key {
					t.Fatalf("heap invariant broken at %d", i)
				}
			}
		}
	}
	var dueBuf []*Action
	var idxBuf []int
	for op := 0; op < 400; op++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(h) == 0: // bulk push a batch
			k := 1 + rng.Intn(40)
			batch := make([]*Action, k)
			for i := range batch {
				batch[i] = &Action{heapIdx: -1, estFinish: rng.Float64() * 100}
				live[batch[i]] = true
			}
			h.bulkPush(batch)
		case r < 8: // collect + remove everything due below a threshold
			maxKey := rng.Float64() * 100
			want := map[*Action]bool{}
			for a := range live {
				if a.eventKey() <= maxKey {
					want[a] = true
				}
			}
			dueBuf, idxBuf = h.collectDue(maxKey, dueBuf[:0], idxBuf)
			if len(dueBuf) != len(want) {
				t.Fatalf("collectDue(%g) found %d actions, linear scan %d", maxKey, len(dueBuf), len(want))
			}
			for _, a := range dueBuf {
				if !want[a] {
					t.Fatalf("collectDue returned non-due action (key %g > %g)", a.eventKey(), maxKey)
				}
			}
			h.removeBatch(dueBuf)
			for _, a := range dueBuf {
				if a.heapIdx != -1 {
					t.Fatalf("removed action still has heapIdx %d", a.heapIdx)
				}
				delete(live, a)
			}
		default: // single remove
			i := rng.Intn(len(h))
			a := h[i].a
			h.remove(i)
			delete(live, a)
		}
		check()
	}
}

// BenchmarkActionHeapLockstep isolates the event-machinery cost the
// equal-key bulk-pop removes: k actions due at the same instant inside
// a heap of n. Each iteration extracts the due run and re-inserts it
// (steady state). `batched` = collectDue + removeBatch + bulkPush —
// O(n) compaction/heapify when the run is large; `per-pop` = k
// individual popMin/push pairs — O(k log n), the reference's machinery.
// The full-stack lock-step benchmark (BenchmarkMSGScalingLockstep)
// shows how much of an MSG step this machinery is; this one shows the
// machinery alone.
func BenchmarkActionHeapLockstep(b *testing.B) {
	cases := []struct {
		name string
		n, k int
	}{
		{"n100k-all-due", 100_000, 100_000},
		{"n100k-half-due", 100_000, 50_000},
		{"n100k-10k-due", 100_000, 10_000},
	}
	for _, c := range cases {
		build := func() (actionHeap, float64) {
			rng := rand.New(rand.NewSource(11))
			var h actionHeap
			const dueKey = 1.0
			for i := 0; i < c.k; i++ {
				h.push(&Action{heapIdx: -1, estFinish: dueKey})
			}
			for i := c.k; i < c.n; i++ {
				h.push(&Action{heapIdx: -1, estFinish: 2 + rng.Float64()*100})
			}
			return h, dueKey
		}
		b.Run(c.name+"/batched", func(b *testing.B) {
			h, dueKey := build()
			var due []*Action
			var stack []int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				due, stack = h.collectDue(dueKey, due[:0], stack)
				if len(due) != c.k {
					b.Fatalf("collected %d, want %d", len(due), c.k)
				}
				h.removeBatch(due)
				h.bulkPush(due)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.k), "ns/action")
		})
		b.Run(c.name+"/per-pop", func(b *testing.B) {
			h, dueKey := build()
			due := make([]*Action, 0, c.k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				due = due[:0]
				for len(h) > 0 && h[0].key <= dueKey {
					due = append(due, h.popMin())
				}
				if len(due) != c.k {
					b.Fatalf("popped %d, want %d", len(due), c.k)
				}
				for _, a := range due {
					h.push(a)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.k), "ns/action")
		})
	}
}

// BenchmarkRefreshBulkRekey is refresh when one capacity change moves
// many rates at once, the msg_backbone situation at every completion:
// n computations share one CPU, k more share a second one, and each
// iteration rescales the availability of one of the two, so refresh
// re-integrates and re-keys every action on it inside a heap of n+k.
// `all` re-keys n of n+k (the rebuild side of the bulk crossover),
// `sixteenth` k = n/16 of them (the per-action sift side). One
// single-edge solve per action is included in both; the heap work is
// what differs between them.
func BenchmarkRefreshBulkRekey(b *testing.B) {
	const n = 2000
	for _, c := range []struct{ name, host string }{{"all", "big"}, {"sixteenth", "small"}} {
		b.Run(c.name, func(b *testing.B) {
			pf := platform.New()
			for _, h := range []string{"big", "small"} {
				if err := pf.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
					b.Fatal(err)
				}
			}
			m := New(core.New(), pf, DefaultConfig())
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < n+n/16; i++ {
				h := "big"
				if i >= n {
					h = "small"
				}
				if _, err := execute(m, h, 1e9*(1+rng.Float64()), 1); err != nil {
					b.Fatal(err)
				}
			}
			m.refresh()
			r, k := m.cpus[c.host], n
			if c.host == "small" {
				k = n / 16
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.setResourceAvail(r, 0.5+0.5*float64(i&1))
				m.refresh()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/action")
		})
	}
}

// lockstepModel builds nPairs identical disjoint sender/receiver pairs:
// every transfer and compute completes at the same instant, the
// workload class the equal-key bulk-pop targets.
func lockstepPlatform(t testing.TB, nPairs int) *platform.Platform {
	t.Helper()
	pf := platform.New()
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		if err := pf.AddHost(&platform.Host{Name: src, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		if err := pf.AddHost(&platform.Host{Name: dst, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		l := &platform.Link{Name: fmt.Sprintf("l%d", i), Bandwidth: 1e8, Latency: 1e-4}
		if err := pf.AddRoute(src, dst, []*platform.Link{l}); err != nil {
			t.Fatal(err)
		}
	}
	return pf
}

// newModel is the signature New and newPerPop share.
type newModel func(*core.Engine, *platform.Platform, Config) *Model

// runLockstep drives rounds of simultaneous transfers + computes and
// returns the completion log (time, action name) in wake order.
func runLockstep(t *testing.T, mk newModel, nPairs, rounds int) []string {
	t.Helper()
	pf := lockstepPlatform(t, nPairs)
	eng := core.New()
	m := mk(eng, pf, DefaultConfig())
	var log []string
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		eng.Spawn(fmt.Sprintf("p%d", i), nil, func(p *core.Process) {
			for r := 0; r < rounds; r++ {
				a, err := communicate(m, src, dst, 1e5)
				if err != nil {
					t.Errorf("Communicate: %v", err)
					return
				}
				if err := a.Wait(p); err != nil {
					t.Errorf("comm wait: %v", err)
					return
				}
				log = append(log, fmt.Sprintf("%.9g %s", eng.Now(), a.Name()))
				b, err := execute(m, src, 1e6, 1)
				if err != nil {
					t.Errorf("Execute: %v", err)
					return
				}
				if err := b.Wait(p); err != nil {
					t.Errorf("exec wait: %v", err)
					return
				}
				log = append(log, fmt.Sprintf("%.9g %s", eng.Now(), b.Name()))
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return log
}

// diffLogs fails at the first event where the batched and the per-pop
// completion logs disagree.
func diffLogs(t *testing.T, batched, perPop []string) {
	t.Helper()
	if len(batched) != len(perPop) {
		t.Fatalf("batched log has %d events, per-pop %d", len(batched), len(perPop))
	}
	for i := range batched {
		if batched[i] != perPop[i] {
			t.Fatalf("event %d differs:\n  batched: %s\n  per-pop: %s", i, batched[i], perPop[i])
		}
	}
}

// TestLockstepBatchedEquivalence asserts that the batched same-instant
// completion path (equal-key bulk-pop + one contiguous wake sweep) and
// the per-pop reference produce the identical completion log for
// directly waiting processes: same times, same actions, same wake
// order.
func TestLockstepBatchedEquivalence(t *testing.T) {
	batched := runLockstep(t, New, 60, 4)
	diffLogs(t, batched, runLockstep(t, newPerPop, 60, 4))
	if len(batched) != 60*4*2 {
		t.Fatalf("completion log has %d events, want %d", len(batched), 60*4*2)
	}
}

// relay is a Completion-driven chain, the way simdag tasks and msg
// rendezvous observe their actions: ActionDone logs the completion,
// releases the action and starts the chain's next one (transfer and
// compute alternating) from inside the handler — so successors enter
// the heap, and recycled structs are handed out again, while the rest
// of a same-instant batch is still being completed.
type relay struct {
	t        *testing.T
	m        *Model
	log      *[]string
	src, dst string
	left     int
}

// startStep starts a pair's action for the step with `left` steps to
// go: a transfer on even counts, a compute on odd ones.
func startStep(m *Model, src, dst string, left int) (*Action, error) {
	if left%2 == 0 {
		return communicate(m, src, dst, 1e5)
	}
	return execute(m, src, 1e6, 1)
}

func (r *relay) start() {
	a, err := startStep(r.m, r.src, r.dst, r.left)
	if err != nil {
		r.t.Errorf("relay %s: %v", r.src, err)
		return
	}
	a.SetCompletion(r)
}

func (r *relay) ActionDone(a *Action, err error) {
	*r.log = append(*r.log, fmt.Sprintf("%.9g %s %v", r.m.eng.Now(), a.Name(), err))
	a.Release()
	if r.left--; r.left > 0 {
		r.start()
	}
}

// runRelays drives nPairs identical pairs through `steps` alternating
// transfers and computes, every fourth pair by a process waiting on its
// actions and the rest by relays — every step of every pair completes
// at one instant, so each batch mixes Completion handlers with plain
// waiters. It returns the completion log in delivery order.
func runRelays(t *testing.T, mk newModel, nPairs, steps int) []string {
	t.Helper()
	pf := lockstepPlatform(t, nPairs)
	eng := core.New()
	m := mk(eng, pf, DefaultConfig())
	var log []string
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		if i%4 != 0 {
			r := &relay{t: t, m: m, log: &log, src: src, dst: dst, left: steps}
			r.start()
			continue
		}
		eng.Spawn(fmt.Sprintf("p%d", i), nil, func(p *core.Process) {
			for left := steps; left > 0; left-- {
				a, err := startStep(m, src, dst, left)
				if err == nil {
					err = a.Wait(p)
				}
				if err != nil {
					t.Errorf("%s: %v", p.Name(), err)
					return
				}
				log = append(log, fmt.Sprintf("%.9g %s woke", eng.Now(), a.Name()))
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return log
}

// TestCompletionBatchEquivalence is the handler-carrying counterpart
// of TestLockstepBatchedEquivalence: a same-instant batch whose actions
// carry Completion handlers that start successor actions from inside
// ActionDone (simdag's release sweep, msg's rendezvous) is delivered in
// the per-pop reference's order, successor by successor.
func TestCompletionBatchEquivalence(t *testing.T) {
	const nPairs, steps = 40, 8
	batched := runRelays(t, New, nPairs, steps)
	diffLogs(t, batched, runRelays(t, newPerPop, nPairs, steps))
	if len(batched) != nPairs*steps {
		t.Fatalf("completion log has %d events, want %d", len(batched), nPairs*steps)
	}
	first, _, _ := strings.Cut(batched[0], " ")
	if last, _, _ := strings.Cut(batched[nPairs-1], " "); first != last {
		t.Fatalf("first batch spans two instants (%s, %s): the pairs are not in lock-step", first, last)
	}
}

// TestSleepZeroSettlesDueCompletions pins the fast-path guard against
// model events: a zero-work action is due at the current instant, so
// Sleep(0) must still run a kernel round (completing it) instead of
// returning inline — the pre-refactor "let this instant settle"
// barrier semantics.
func TestSleepZeroSettlesDueCompletions(t *testing.T) {
	pf := lockstepPlatform(t, 1)
	eng := core.New()
	m := New(eng, pf, DefaultConfig())
	eng.Spawn("p", nil, func(p *core.Process) {
		a, err := execute(m, "s0", 0, 1) // zero work: due immediately
		if err != nil {
			t.Errorf("Execute: %v", err)
			return
		}
		if err := p.Sleep(0); err != nil {
			t.Errorf("Sleep(0): %v", err)
			return
		}
		if !a.Done() {
			t.Error("zero-work action not completed across Sleep(0)")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestCompletedActionWaitFastPath: waiting on an action that already
// finished is answered inline — zero channel round trips, visible in
// the kernel's fast-path counter.
func TestCompletedActionWaitFastPath(t *testing.T) {
	pf := lockstepPlatform(t, 1)
	eng := core.New()
	m := New(eng, pf, DefaultConfig())
	eng.Spawn("p", nil, func(p *core.Process) {
		a, err := execute(m, "s0", 1e6, 1)
		if err != nil {
			t.Errorf("Execute: %v", err)
			return
		}
		if err := p.Sleep(10); err != nil { // far beyond the action's finish
			t.Errorf("Sleep: %v", err)
			return
		}
		if done, _ := a.Test(p); !done {
			t.Error("action not done after 10s")
		}
		before := eng.SimcallStats()
		if err := a.Wait(p); err != nil {
			t.Errorf("Wait: %v", err)
		}
		after := eng.SimcallStats()
		if after.Fast != before.Fast+1 {
			t.Errorf("Fast went %d -> %d, want +1 (completed-action wait)", before.Fast, after.Fast)
		}
		if after.Slow != before.Slow {
			t.Errorf("Slow went %d -> %d, want unchanged", before.Slow, after.Slow)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
