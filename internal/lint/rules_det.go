package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// runMapRange flags range statements over map-typed values: Go
// randomizes map iteration order, so any map walk on a simulation path
// is a reproducibility bug waiting for a hash-seed change (DESIGN.md
// "The simcall layer": identical inputs must replay the identical
// event log).
func runMapRange(p *Package, cfg *Config) []Finding {
	if !inScope(cfg.DetPkgs, p.Path) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				out = append(out, Finding{
					Pos:  p.Fset.Position(rs.Pos()),
					Rule: "det-maprange",
					Msg: fmt.Sprintf("range over map %s: iteration order is nondeterministic on a simulation path; iterate a sorted slice instead",
						types.TypeString(t, types.RelativeTo(p.Types))),
				})
			}
			return true
		})
	}
	return out
}

// runWallclock flags reads of the host clock (time.Now/Since/Until)
// and draws from the global math/rand source in simulation packages:
// simulated time comes from the engine clock, and randomness must flow
// from an explicit seed or the run is unreproducible.
func runWallclock(p *Package, cfg *Config) []Finding {
	if !inScope(cfg.WallclockPkgs, p.Path) {
		return nil
	}
	// Constructors that return a locally seeded generator are the
	// sanctioned escape hatch; everything else package-level in
	// math/rand draws from the shared global source.
	seededOK := map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil { // methods (e.g. on *rand.Rand) are fine
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if name := fn.Name(); name == "Now" || name == "Since" || name == "Until" {
					out = append(out, Finding{
						Pos:  p.Fset.Position(sel.Pos()),
						Rule: "det-wallclock",
						Msg:  fmt.Sprintf("wallclock read time.%s on a simulation path: simulated time must come from the engine clock", name),
					})
				}
			case "math/rand", "math/rand/v2":
				if !seededOK[fn.Name()] {
					out = append(out, Finding{
						Pos:  p.Fset.Position(sel.Pos()),
						Rule: "det-wallclock",
						Msg:  fmt.Sprintf("global math/rand source via rand.%s: use a local rand.New(rand.NewSource(seed)) so runs replay bit-identically", fn.Name()),
					})
				}
			}
			return true
		})
	}
	return out
}

// runGoroutine flags go statements, and references to iter.Pull or
// iter.Pull2 (a coroutine is a goroutine its caller switches to),
// whose enclosing function is not an approved spawn site: kernel paths
// are goroutine-free by contract (the processless SimDag/RunUntilIdle
// design), and every sanctioned spawn site is named in the allowlist
// or carries an allow annotation.
func runGoroutine(p *Package, cfg *Config) []Finding {
	if !inScope(cfg.DetPkgs, p.Path) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			what := "go statement"
			switch n := n.(type) {
			case *ast.GoStmt:
			case *ast.SelectorExpr:
				fn, ok := p.Info.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "iter" || (fn.Name() != "Pull" && fn.Name() != "Pull2") {
					return true
				}
				what = "iter." + fn.Name()
			default:
				return true
			}
			where := "package scope"
			if fd := enclosingFunc(p, f, n.Pos()); fd != nil {
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					if cfg.GoroutineAllow[fn.FullName()] {
						return true
					}
					where = fn.FullName()
				}
			}
			out = append(out, Finding{
				Pos:  p.Fset.Position(n.Pos()),
				Rule: "det-goroutine",
				Msg:  fmt.Sprintf("%s in %s is not an approved spawn site: kernel paths must not spawn goroutines", what, where),
			})
			return true
		})
	}
	return out
}

// runHotSprintf flags fmt.Sprintf in the hot-path packages PR 3
// converted to string concatenation: Sprintf re-parses its format on
// every call and allocates through an interface slice, both of which
// the concat pass removed from per-activity costs.
func runHotSprintf(p *Package, cfg *Config) []Finding {
	if !inScope(cfg.HotPkgs, p.Path) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Sprintf" {
				return true
			}
			out = append(out, Finding{
				Pos:  p.Fset.Position(sel.Pos()),
				Rule: "hot-sprintf",
				Msg:  "fmt.Sprintf in a hot-path package: build the string by concatenation (strconv + +) as in the PR 3 concat pass",
			})
			return true
		})
	}
	return out
}
