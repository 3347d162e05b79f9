package msg

// This file is the factory for the pooled rendezvous records: the only
// place allowed to construct or scrub a pendingSend/pendingRecv by
// composite literal. simgrid-lint's pool-literal rule enforces that
// scope — a literal anywhere else would bypass the free lists and
// break the "pools hold only scrubbed structs" invariant (DESIGN.md,
// "Object lifecycle & pooling").

// grabSend returns a blank pendingSend, recycled when possible.
func (env *Environment) grabSend() *pendingSend {
	if ps, ok := env.sendPool.Get(); ok {
		return ps
	}
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
	env.sendPool.Put(ps)
}

// grabRecv returns a blank pendingRecv, recycled when possible.
func (env *Environment) grabRecv() *pendingRecv {
	if pr, ok := env.recvPool.Get(); ok {
		return pr
	}
	return &pendingRecv{}
}

// releaseRecv scrubs a finished pendingRecv and pools it; the same
// ownership rules as releaseSend apply, with get as the only caller.
func (env *Environment) releaseRecv(pr *pendingRecv) {
	*pr = pendingRecv{}
	env.recvPool.Put(pr)
}

// grabChain returns a blank ChainProc, recycled when possible: chain
// churn (millions of short-lived chains, or auto-restart cycling)
// reuses terminated instances instead of allocating fresh ones.
func (env *Environment) grabChain() *ChainProc {
	if c, ok := env.chainPool.Get(); ok {
		return c
	}
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
	env.chainPool.Put(c)
}
