// Parallel tasks (ptasks): the SimGrid L07 workload class as a
// first-class simdag task kind. A ptask is ONE activity that consumes
// CPU on several hosts and bandwidth between them simultaneously —
// surf couples the whole allocation through a single MaxMin variable
// (Model.ExecuteParallel), so the task finishes when the slowest
// coupled resource has delivered its share. Degenerate ptasks reduce
// exactly to the simple kinds: one host and no bytes behaves like a
// Compute task, one crossed link like a Comm task (pinned by
// TestPtaskEquivalence).
//
// Placement is a host *set*: ScheduleParallel assigns k distinct hosts
// to the k per-host flop amounts. The reference schedulers place
// ptasks in a greedy pre-pass (placeParallel) before list-scheduling
// the computes, and the failure-reschedule policy re-places ptask
// victims on the surviving pool like any compute (reschedule.go).

package simdag

import (
	"fmt"
	"math"
)

// NewParallelTask creates a ptask, NotScheduled until ScheduleParallel
// assigns its host set. flops[i] is the work of the i-th slot;
// bytes[i][j] (optional, may be nil) the data moved from slot i to
// slot j. Amount() reports the summed flops. The slices are retained,
// not copied — loaders may build them in place.
func (s *Simulation) NewParallelTask(name string, flops []float64, bytes [][]float64) (*Task, error) {
	if len(flops) == 0 {
		return nil, fmt.Errorf("simdag: ptask %q needs at least one flop slot", name)
	}
	total := 0.0
	for i, f := range flops {
		if !validAmount(f) {
			return nil, fmt.Errorf("simdag: ptask %q has flops %g in slot %d, want finite and >= 0", name, f, i)
		}
		total += f
	}
	if bytes != nil {
		if len(bytes) != len(flops) {
			return nil, fmt.Errorf("simdag: ptask %q bytes matrix has %d rows, want %d", name, len(bytes), len(flops))
		}
		for i := range bytes {
			if len(bytes[i]) != len(flops) {
				return nil, fmt.Errorf("simdag: ptask %q bytes row %d has %d entries, want %d", name, i, len(bytes[i]), len(flops))
			}
			for j, b := range bytes[i] {
				if !validAmount(b) {
					return nil, fmt.Errorf("simdag: ptask %q has bytes %g from slot %d to %d, want finite and >= 0", name, b, i, j)
				}
			}
		}
	}
	t := s.add()
	t.name, t.kind, t.amount = name, Parallel, total
	t.pflops, t.pbytes = flops, bytes
	return t, nil
}

// validAmount reports whether a ptask payload entry is finite and not
// negative (NaN fails both comparisons).
func validAmount(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// Slots returns the number of host slots the ptask spans (0 for other
// kinds).
func (t *Task) Slots() int { return len(t.pflops) }

// ParallelHosts returns the assigned host set (nil before
// ScheduleParallel), aliasing the internal slice.
func (t *Task) ParallelHosts() []string { return t.phosts }

// ScheduleParallel assigns one distinct host per flop slot, making the
// ptask Schedulable. The slice is copied.
func (t *Task) ScheduleParallel(hosts []string) error {
	if t.kind != Parallel {
		return fmt.Errorf("simdag: ScheduleParallel on %s task %q (want ptask)", t.kind, t.name)
	}
	if t.state != NotScheduled && t.state != Schedulable {
		return fmt.Errorf("%w: ScheduleParallel on %s task %q", ErrBadState, t.state, t.name)
	}
	if len(hosts) != len(t.pflops) {
		return fmt.Errorf("simdag: ptask %q got %d hosts for %d slots", t.name, len(hosts), len(t.pflops))
	}
	for i, h := range hosts {
		if t.sim.pf.Host(h) == nil {
			return fmt.Errorf("simdag: unknown host %q", h)
		}
		for j := 0; j < i; j++ {
			if hosts[j] == h {
				return fmt.Errorf("simdag: ptask %q host %q repeated", t.name, h)
			}
		}
	}
	t.phosts = append(t.phosts[:0], hosts...)
	t.state = Schedulable
	return nil
}

// unschedParallel pulls a ptask back to NotScheduled (reschedule
// policy).
func (t *Task) unschedParallel() {
	t.phosts = t.phosts[:0]
	t.state = NotScheduled
}

// parallelDown reports whether any host of a scheduled ptask is
// currently off.
func (s *Simulation) parallelDown(t *Task) bool {
	for _, h := range t.phosts {
		if !s.model.HostUp(h) {
			return true
		}
	}
	return false
}

// placeParallel assigns every unplaced ptask a host set from the pool,
// greedily: ptasks are visited in creation order and each takes the k
// least-loaded pool hosts (estimated finish time, ties broken by pool
// order), the same crude-but-deterministic load model min-min uses for
// availability. Every reference scheduler runs it in its shared front
// half (beginSchedule), so computes that depend on a ptask can estimate
// through it.
func placeParallel(s *Simulation, ct *costTable) error {
	avail := make([]float64, ct.n) // by pool index
	chosen := make([]int, 0, 4)
	names := make([]string, 0, 4)
	for _, t := range s.tasks {
		if t.kind != Parallel || t.state != NotScheduled {
			continue
		}
		k := len(t.pflops)
		if k > ct.n {
			return fmt.Errorf("simdag: ptask %q needs %d hosts, pool has %d", t.name, k, ct.n)
		}
		// Select the k pool entries with the smallest avail (stable in
		// pool order): one selection pass per slot keeps this free of
		// sort allocations and deterministic.
		chosen = chosen[:0]
		for slot := 0; slot < k; slot++ {
			best := -1
			for i := range avail {
				taken := false
				for _, c := range chosen {
					if c == i {
						taken = true
						break
					}
				}
				if taken {
					continue
				}
				if best < 0 || avail[i] < avail[best] {
					best = i
				}
			}
			chosen = append(chosen, best)
		}
		names = names[:0]
		start := 0.0
		for _, c := range chosen {
			names = append(names, ct.names[c])
			if avail[c] > start {
				start = avail[c]
			}
		}
		if err := t.ScheduleParallel(names); err != nil {
			return err
		}
		end := start + ct.coupled(t)
		for _, c := range chosen {
			avail[c] = end
		}
	}
	return nil
}
