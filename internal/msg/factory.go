package msg

// This file is the factory for the pooled rendezvous records and chains:
// a miss carves them from the slabs, and only here may a pending or a
// ChainProc be scrubbed by composite literal (simgrid-lint's pool-literal
// rule; DESIGN.md, "Object lifecycle & pooling": pools hold only
// scrubbed structs).

// grab returns a record facing d with who blocked on it, recycled from
// that direction's free list when possible, else carved.
func (env *Environment) grab(d dir, who *actor) *pending {
	r, ok := env.pools[d].Get()
	if !ok {
		r = env.pendSlab.New()
	}
	r.env, r.who, r.dir = env, who, d
	return r
}

// release scrubs a finished record (returning a send's transfer action
// to the surf free list) and pools it. Callers must guarantee no
// reference survives: the record is out of every mailbox queue, its
// timeout timer is canceled, and the peer cross-references were severed
// by ActionDone. rendezvous's release defer establishes exactly that on
// both the return and the unwind path (a killed party's record is
// dequeued or handed to ActionDone via abandon before recycling — kill
// churn leaks nothing).
func (env *Environment) release(r *pending) {
	if a := r.action; a != nil {
		a.Release() // no-op if somehow not done
	}
	d := r.dir
	*r = pending{}
	env.pools[d].Put(r)
}

// grabChain returns a blank ChainProc, recycled when possible (else
// carved): chain churn (millions of short-lived chains, or auto-restart
// cycling) reuses terminated instances instead of allocating fresh ones.
func (env *Environment) grabChain() *ChainProc {
	if c, ok := env.chainPool.Get(); ok {
		return c
	}
	return env.chainSlab.New()
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
