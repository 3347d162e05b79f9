package lint

// DefaultConfig is the project's contract configuration: it binds each
// rule to the packages and names whose invariants DESIGN.md states in
// prose ("Enforced invariants" maps each prose rule to its rule ID
// here). cmd/simgrid-lint and the module-clean regression test both
// run with exactly this config.
func DefaultConfig() *Config {
	const mod = "repro"
	internal := func(names ...string) map[string]bool {
		m := make(map[string]bool, len(names))
		for _, n := range names {
			m[mod+"/internal/"+n] = true
		}
		return m
	}
	return &Config{
		// The reproducibility kernel: every package on the simulated
		// event path. A map walk or stray goroutine here changes event
		// order between runs. faults is included because a fault
		// schedule's compile-time draws and injection-time callbacks are
		// both on the byte-for-byte replay contract. instr is included
		// because trace bytes must be a pure function of the run: a map
		// walk in an emitter would reorder events between runs.
		// sweep is included because a campaign report's bytes are on the
		// same replay contract: the grid expansion and per-run stats
		// must be a pure function of (spec, seed) at any fanout.
		DetPkgs: internal("core", "surf", "maxmin", "msg", "simdag", "faults", "instr", "sweep"),

		// Everything under internal/ that participates in (or reports
		// on) simulation runs. Deliberate wallclock reads — SMPI-style
		// benching of real compute, solver self-timing in the
		// validation drivers, the real-network gras backend — carry
		// //lint:allow annotations stating exactly that.
		// instr's profiler owns the single sanctioned host-clock read
		// (Profiler.now, with its inline allow); every other instr path
		// is stamped with simulated time only.
		WallclockPkgs: internal(
			"core", "surf", "maxmin", "msg", "simdag", "faults",
			"smpi", "gras", "pastry", "validate",
			"trace", "platform", "packet", "deploy", "gantt",
			"instr", "sweep",
		),

		// Packages PR 3 converted from Sprintf to concatenation on
		// their name-building hot paths.
		HotPkgs: internal("core", "surf", "maxmin", "msg", "simdag"),

		// The only sanctioned spawn sites on kernel paths: coroutine
		// creation in the core worker factory (Engine.Spawn grabs a
		// pooled worker and falls back to newWorker's iter.Pull).
		GoroutineAllow: map[string]bool{
			"repro/internal/core.newWorker": true,
			// Campaign fanout workers in the sweep harness: host-side
			// orchestration over isolated per-run engines, with results
			// ordered by run index so scheduling never reaches the
			// report bytes.
			"repro/internal/sweep.Execute": true,
		},

		// Pooled types and the factory files allowed to scrub them by
		// composite literal; a miss carves from the owner's pool.Slab
		// (DESIGN.md "Object lifecycle & pooling" ownership table).
		PooledTypes: map[string][]string{
			"repro/internal/maxmin.Variable": {"factory.go"},
			"repro/internal/maxmin.elem":     {"factory.go"},
			"repro/internal/surf.Action":     {"factory.go"},
			"repro/internal/msg.pending":     {"factory.go"},
			"repro/internal/msg.ChainProc":   {"factory.go"},
			"repro/internal/core.worker":     {"factory.go"},
		},

		// Release vocabulary for the use-after-release dataflow check.
		ReleaseMethods: map[string]bool{"Release": true},
		ReleaseFuncs: map[string]bool{
			"RemoveVariable": true,
			"release":        true,
			"releaseChain":   true,
			"recycleWorker":  true,
			"poolAction":     true,
		},

		// Blocking simcall entry points: everything that parks the
		// calling goroutine on the kernel.
		BlockingFuncs: map[string]bool{
			"(*repro/internal/core.Process).BlockOn": true,
			"(*repro/internal/core.Process).blockOn": true,
			"(*repro/internal/core.Process).park":    true,
			"(*repro/internal/surf.Action).Wait":     true,
			"(*repro/internal/core.Process).Sleep":   true,
		},

		// Completion handlers run in kernel context.
		CompletionIfaces: []string{"repro/internal/surf.Completion"},

		// The fenced packages (CI's line budget): their exports must be
		// used by non-test code in the module, bench and examples
		// included, or be deleted.
		RentPkgs: internal("core", "surf", "msg", "simdag", "maxmin", "smpi"),
	}
}
