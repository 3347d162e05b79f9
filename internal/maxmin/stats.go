package maxmin

import "repro/internal/instr"

// solveStats counts solver work since construction. The fields are
// plain integers bumped inline on the solve path (an increment, not a
// hook — always on, far below the noise floor of a solve), reported by
// MetricsInto.
type solveStats struct {
	Solves        uint64 // solve() runs (Dirty() short-circuits don't count)
	ScopeVars     uint64 // cumulative variables across re-solved scopes
	Components    uint64 // cumulative connected components re-solved
	MaxScopeVars  int    // largest single-solve scope
	MaxComponents int    // most components in one solve
}

// MetricsInto dumps the solver's counters and pool scoreboards into r
// under the maxmin.* namespace.
func (s *System) MetricsInto(r *instr.Registry) {
	if r == nil {
		return
	}
	r.Add("maxmin.solves", s.stats.Solves)
	// Frozen key, always 0: the parallel solve is gone, but bench/golden.json
	// digests the metric key set — drop it when that golden is re-pinned.
	r.Add("maxmin.parallel_solves", 0)
	r.Add("maxmin.scope_vars", s.stats.ScopeVars)
	r.Add("maxmin.components", s.stats.Components)
	r.Max("maxmin.max_scope_vars", float64(s.stats.MaxScopeVars))
	r.Max("maxmin.max_components", float64(s.stats.MaxComponents))
	r.Set("maxmin.vars", float64(len(s.vars)))
	r.Set("maxmin.constraints", float64(len(s.cnsts)))
	r.SetPool("maxmin.var_pool", s.varPool.Stat())
	r.SetPool("maxmin.elem_pool", s.elemPool.Stat())
}
