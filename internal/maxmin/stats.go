package maxmin

import "repro/internal/instr"

// SolveStats counts solver work since construction. The fields are
// plain integers bumped inline on the solve path (an increment, not a
// hook — always on, far below the noise floor of a solve), snapshot
// via Stats or MetricsInto.
type SolveStats struct {
	Solves        uint64 // solve() runs (Dirty() short-circuits don't count)
	ScopeVars     uint64 // cumulative variables across re-solved scopes
	Components    uint64 // cumulative connected components re-solved
	MaxScopeVars  int    // largest single-solve scope
	MaxComponents int    // most components in one solve
}

// Stats returns the accumulated solver counters.
func (s *System) Stats() SolveStats { return s.stats }

// MetricsInto dumps the solver's counters and pool scoreboards into r
// under the maxmin.* namespace.
func (s *System) MetricsInto(r *instr.Registry) {
	if r == nil {
		return
	}
	r.Counter("maxmin.solves").Add(s.stats.Solves)
	// Frozen key, always 0: the parallel solve is gone, but bench/golden.json
	// digests the metric key set — drop it when that golden is re-pinned.
	r.Counter("maxmin.parallel_solves").Add(0)
	r.Counter("maxmin.scope_vars").Add(s.stats.ScopeVars)
	r.Counter("maxmin.components").Add(s.stats.Components)
	r.Gauge("maxmin.max_scope_vars").SetMax(float64(s.stats.MaxScopeVars))
	r.Gauge("maxmin.max_components").SetMax(float64(s.stats.MaxComponents))
	r.Gauge("maxmin.vars").Set(float64(len(s.vars)))
	r.Gauge("maxmin.constraints").Set(float64(len(s.cnsts)))
	r.SetPool("maxmin.var_pool", s.varPool.Stat())
	r.SetPool("maxmin.elem_pool", s.elemPool.Stat())
}
