package msg

import "repro/internal/pool"

// This file is the factory for the pooled rendezvous records: the only
// place allowed to construct or scrub a pendingSend/pendingRecv by
// composite literal. simgrid-lint's pool-literal rule enforces that
// scope — a literal anywhere else would bypass the free lists and
// break the "pools hold only scrubbed structs" invariant (DESIGN.md,
// "Object lifecycle & pooling").

// grabSend returns a blank pendingSend, recycled when possible.
func (env *Environment) grabSend() *pendingSend {
	if n := len(env.sendPool); pool.Enabled && n > 0 {
		ps := env.sendPool[n-1]
		env.sendPool[n-1] = nil
		env.sendPool = env.sendPool[:n-1]
		env.sendPoolHit++
		return ps
	}
	env.sendPoolMiss++
	return &pendingSend{}
}

// releaseSend scrubs a finished pendingSend (returning its transfer
// action to the surf free list) and pools it. Callers must guarantee
// no reference survives: the record is out of every mailbox queue, its
// timeout timer is canceled, and the delivery cross-references were
// severed by ActionDone. put's release defer establishes exactly that
// on both the return and the unwind path (a killed sender's record is
// dequeued or handed to ActionDone via abandonSend before recycling —
// kill churn leaks nothing).
func (env *Environment) releaseSend(ps *pendingSend) {
	if a := ps.action; a != nil {
		a.Release() // no-op if somehow not done
	}
	*ps = pendingSend{}
	if pool.Enabled {
		env.sendPool = append(env.sendPool, ps)
	}
}

// grabRecv returns a blank pendingRecv, recycled when possible.
func (env *Environment) grabRecv() *pendingRecv {
	if n := len(env.recvPool); pool.Enabled && n > 0 {
		pr := env.recvPool[n-1]
		env.recvPool[n-1] = nil
		env.recvPool = env.recvPool[:n-1]
		env.recvPoolHit++
		return pr
	}
	env.recvPoolMiss++
	return &pendingRecv{}
}

// releaseRecv scrubs a finished pendingRecv and pools it; the same
// ownership rules as releaseSend apply, with get as the only caller.
func (env *Environment) releaseRecv(pr *pendingRecv) {
	*pr = pendingRecv{}
	if pool.Enabled {
		env.recvPool = append(env.recvPool, pr)
	}
}

// grabChain returns a blank ChainProc, recycled when possible: chain
// churn (millions of short-lived chains, or auto-restart cycling)
// reuses terminated instances instead of allocating fresh ones.
func (env *Environment) grabChain() *ChainProc {
	if n := len(env.chainPool); pool.Enabled && n > 0 {
		c := env.chainPool[n-1]
		env.chainPool[n-1] = nil
		env.chainPool = env.chainPool[:n-1]
		env.chainPoolHit++
		return c
	}
	env.chainPoolMiss++
	return &ChainProc{}
}

// releaseChain scrubs a terminated ChainProc and pools it. The caller
// (teardown) guarantees the chain is deregistered and every pending
// record, action and activity interval has been settled. Two allocations
// survive the scrub on purpose: the counters slice (capacity reused by
// the next occupant) and the sleep timer (tied to this environment's
// engine and re-armed rather than re-allocated — its callback reads
// the ChainProc afresh at fire time, so a recycled occupant is fine).
func (env *Environment) releaseChain(c *ChainProc) {
	counters := c.counters[:0]
	timer := c.sleepTimer
	*c = ChainProc{counters: counters, sleepTimer: timer}
	if pool.Enabled {
		env.chainPool = append(env.chainPool, c)
	}
}
