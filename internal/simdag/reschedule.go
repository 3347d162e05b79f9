// Opt-in failure recovery: instead of cascade-cancelling the dependents
// of a compute task whose host died, divert the task back to
// NotScheduled and re-place everything unplaced with the existing
// min-min pass over the policy's surviving hosts. The pass itself runs
// from one re-armable timer at the current instant (the same batching
// shape as the release sweep), so a host failure killing k running
// tasks costs one rescheduling pass, not k.

package simdag

import "errors"

// ErrUnplaceable marks a task failed by the reschedule policy because
// no policy host survived to take it.
var ErrUnplaceable = errors.New("simdag: no surviving host to reschedule onto")

// SetReschedulePolicy enables failure rescheduling over the given host
// pool: a compute task failing with ErrHostFailed is pulled back to
// NotScheduled and re-placed by min-min on whichever policy hosts are
// still up (with adjacent unreleased comm tasks re-derived to match),
// instead of failing and cancelling its dependents. Tasks are only
// terminally failed — with ErrUnplaceable, dependents cancelled — when
// every policy host is down at rescheduling time. Passing nil (or an
// empty slice) disables the policy. The slice is copied, repeated names
// dropped.
func (s *Simulation) SetReschedulePolicy(hosts []string) {
	s.reschedHosts, _ = internHosts(hosts)
}

// divert intercepts a would-be terminal failure: under the reschedule
// policy, a compute task (or ptask — any member host dying kills the
// whole coupled activity) killed by its host's failure goes back to
// the scheduler instead of Failed. Returns false when the failure
// should proceed terminally (policy off, wrong kind, or a non-host
// cause — comm tasks are deliberately not diverted: re-placing one
// between the same endpoints would retry the same dead link in the
// same instant).
func (s *Simulation) divert(t *Task, err error) bool {
	if len(s.reschedHosts) == 0 || (t.kind != Compute && t.kind != Parallel) || !errors.Is(err, ErrHostFailed) {
		return false
	}
	if t.action != nil {
		t.action.Release()
		t.action = nil
	}
	if t.kind == Parallel {
		t.unschedParallel()
	} else {
		t.state = NotScheduled
		t.host = ""
		t.execH = nil
	}
	t.err = nil
	s.reschedules++
	s.notify(t)
	s.armReschedule()
	return true
}

// armReschedule schedules one rescheduling pass at the current instant
// (re-arming a single timer), batching however many same-instant
// failures into one min-min run. The timer sequence makes the order
// within the instant deterministic: the resource failure fails and
// diverts its victims, then the pass re-places them, then the release
// sweep starts whatever became ready.
func (s *Simulation) armReschedule() {
	if s.reschedArmed {
		return
	}
	s.reschedArmed = true
	if s.resched == nil {
		s.resched = s.eng.At(s.eng.Now(), func() {
			s.reschedArmed = false
			s.reschedulePass()
		})
	} else {
		s.resched.Rearm(s.eng.Now())
	}
}

// reschedulePass re-places every unplaced compute on the policy's
// surviving hosts. Schedulable-but-unreleased computes stranded on a
// dead host are pulled back first, and unreleased comm tasks adjacent
// to any unplaced compute have their endpoints cleared so placeComms
// re-derives them from the new placements.
func (s *Simulation) reschedulePass() {
	up := make([]string, 0, len(s.reschedHosts))
	for _, h := range s.reschedHosts {
		if s.model.HostUp(h) {
			up = append(up, h)
		}
	}
	for _, t := range s.tasks {
		if t.kind == Compute && t.state == Schedulable && !s.model.HostUp(t.host) {
			t.state = NotScheduled
			t.host = ""
			t.execH = nil
			s.notify(t)
		}
		if t.kind == Parallel && t.state == Schedulable && s.parallelDown(t) {
			t.unschedParallel()
			s.notify(t)
		}
	}
	for _, t := range s.tasks {
		if t.kind == Comm && t.state == Schedulable && commNeighbourUnplaced(t) {
			t.state = NotScheduled
			t.src, t.dst = "", ""
			t.commH = nil
			s.notify(t)
		}
	}
	if len(up) == 0 {
		s.failUnplaceable()
		return
	}
	// A ptask needing more distinct hosts than survive is unplaceable
	// on its own; failing it here (dependents cancel through the normal
	// cascade) lets the remaining work still be re-placed below.
	for _, t := range s.tasks {
		if t.kind == Parallel && t.state == NotScheduled && len(t.pflops) > len(up) {
			s.failTerminal(t, ErrUnplaceable)
		}
	}
	if err := ScheduleMinMin(s, up); err != nil {
		s.failUnplaceable()
		return
	}
	for _, t := range s.tasks {
		if t.state == Schedulable && t.waitingOn == 0 {
			s.enqueue(t)
		}
	}
}

// commNeighbourUnplaced reports whether any compute neighbour of a comm
// task is currently unplaced (being rescheduled).
func commNeighbourUnplaced(t *Task) bool {
	for it, p := t.preds(); p != nil; p = it.next() {
		if (p.kind == Compute || p.kind == Parallel) && p.state == NotScheduled {
			return true
		}
	}
	for it, p := t.succs(); p != nil; p = it.next() {
		if (p.kind == Compute || p.kind == Parallel) && p.state == NotScheduled {
			return true
		}
	}
	return false
}

// failUnplaceable terminally fails every unplaced compute and ptask:
// the policy ran out of hosts. Their dependents cancel through the
// normal cascade; FailedCount thus reflects only genuinely unplaceable
// work.
func (s *Simulation) failUnplaceable() {
	for _, t := range s.tasks {
		if (t.kind == Compute || t.kind == Parallel) && t.state == NotScheduled {
			s.failTerminal(t, ErrUnplaceable)
		}
	}
}
