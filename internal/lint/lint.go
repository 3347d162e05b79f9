package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Msg, f.Rule)
}

// Config scopes and parameterizes the rules. A nil scope map means the
// rule applies to every package it is run on; DefaultConfig narrows
// each rule to the packages whose DESIGN.md contract it enforces.
type Config struct {
	// DetPkgs scopes det-maprange and det-goroutine: the packages whose
	// event order is the reproducibility contract.
	DetPkgs map[string]bool
	// WallclockPkgs scopes det-wallclock.
	WallclockPkgs map[string]bool
	// HotPkgs scopes hot-sprintf: packages whose name-building PR 3
	// converted to concatenation.
	HotPkgs map[string]bool
	// GoroutineAllow holds types.Func.FullName()s of the approved spawn
	// sites; go statements and iter.Pull/Pull2 references anywhere else
	// in DetPkgs are findings.
	GoroutineAllow map[string]bool
	// PooledTypes maps a qualified type name ("pkg/path.Type") to the
	// base names of its factory files — the only files allowed to
	// construct or scrub it with a composite literal.
	PooledTypes map[string][]string
	// ReleaseMethods are method names whose call releases the receiver
	// back to a pool (x.Release() poisons x).
	ReleaseMethods map[string]bool
	// ReleaseFuncs are function or method names whose call releases
	// their first argument (s.RemoveVariable(v) poisons v).
	ReleaseFuncs map[string]bool
	// BlockingFuncs holds types.Func.FullName()s of the blocking
	// simcall entry points a Completion handler must never reach.
	BlockingFuncs map[string]bool
	// CompletionIfaces are qualified interface names ("pkg/path.Name");
	// methods implementing any of them are the simcall-in-handler
	// roots.
	CompletionIfaces []string
	// RentPkgs scopes api-rent: packages whose every exported func,
	// method and package-level var needs a non-test use in the module.
	RentPkgs map[string]bool
}

func inScope(scope map[string]bool, path string) bool {
	return scope == nil || scope[path]
}

// Rule is one named check. Run checks one package at a time; a rule
// that needs every use in the module sets Whole instead, and runs only
// when the linted set is a whole module (see wholeModule).
type Rule struct {
	Name  string
	Doc   string
	Run   func(p *Package, cfg *Config) []Finding
	Whole func(pkgs []*Package, cfg *Config) []Finding
}

// Rules returns the registered rules in stable order.
func Rules() []Rule {
	return []Rule{
		{"det-maprange", "no range over a map-typed value on a simulation path", runMapRange, nil},
		{"det-wallclock", "no time.Now/Since/Until or global math/rand source in simulation packages", runWallclock, nil},
		{"det-goroutine", "no go statements outside the approved spawn-site allowlist", runGoroutine, nil},
		{"pool-literal", "pooled types are registered, and only their factory files scrub them by literal", runPoolLiteral, nil},
		{"pool-use-after-release", "no reads of a pooled object after it was released", runUseAfterRelease, nil},
		{"simcall-in-handler", "Completion handlers must not reach a blocking simcall entry point", runSimcallInHandler, nil},
		{"hot-sprintf", "no fmt.Sprintf in concat-converted hot-path packages", runHotSprintf, nil},
		{"api-rent", "every export of a fenced package has a non-test use in the module", nil, runAPIRent},
	}
}

// RuleNames returns the IDs of all registered rules.
func RuleNames() []string {
	rs := Rules()
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.Name
	}
	return names
}

// allowPrefix introduces a suppression annotation. The full form is
//
//	//lint:allow <rule> <reason>
//
// placed either on the offending line or alone on the line directly
// above it. The reason is mandatory.
const allowPrefix = "//lint:allow"

// AllowRule is the pseudo-rule under which the suppression machinery
// reports its own findings (malformed, unknown-rule and stale allows).
// It cannot itself be suppressed.
const AllowRule = "allow"

// allow is one parsed, well-formed suppression annotation.
type allow struct {
	pos  token.Position
	rule string
	used bool
}

// Run executes the named rules (all registered rules when ruleNames is
// empty) over pkgs, applies //lint:allow suppressions, validates the
// annotations themselves, and returns the surviving findings sorted by
// position. A Whole rule is dropped from the selection unless pkgs is a
// whole module, so its allows are not judged stale on a subset.
func Run(pkgs []*Package, cfg *Config, ruleNames ...string) []Finding {
	if cfg == nil {
		cfg = &Config{}
	}
	selected := Rules()
	want := make(map[string]bool, len(ruleNames))
	for _, n := range ruleNames {
		want[n] = true
	}
	whole := wholeModule(pkgs)
	var rs []Rule
	for _, r := range selected {
		if (len(want) == 0 || want[r.Name]) && (r.Whole == nil || whole) {
			rs = append(rs, r)
		}
	}
	selected = rs
	ran := make(map[string]bool, len(selected))
	for _, r := range selected {
		ran[r.Name] = true
	}
	known := make(map[string]bool)
	for _, n := range RuleNames() {
		known[n] = true
	}

	var findings []Finding
	var allows []*allow
	for _, r := range selected {
		if r.Whole != nil {
			findings = append(findings, r.Whole(pkgs, cfg)...)
		}
	}
	for _, p := range pkgs {
		for _, r := range selected {
			if r.Run != nil {
				findings = append(findings, r.Run(p, cfg)...)
			}
		}
		as, bad := parseAllows(p, known)
		allows = append(allows, as...)
		findings = append(findings, bad...)
	}

	// Suppression: an allow matches findings of its rule on its own
	// line or the next line of the same file.
	var kept []Finding
	for _, f := range findings {
		if f.Rule == AllowRule {
			kept = append(kept, f)
			continue
		}
		suppressed := false
		for _, a := range allows {
			if a.rule == f.Rule && a.pos.Filename == f.Pos.Filename &&
				(f.Pos.Line == a.pos.Line || f.Pos.Line == a.pos.Line+1) {
				a.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	// Staleness is only decidable for rules that actually ran.
	for _, a := range allows {
		if !a.used && ran[a.rule] {
			kept = append(kept, Finding{
				Pos:  a.pos,
				Rule: AllowRule,
				Msg:  fmt.Sprintf("stale %s %s: the rule does not fire on this or the next line; remove the annotation", allowPrefix, a.rule),
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return kept
}

// parseAllows extracts the suppression annotations of a package.
// Malformed annotations (unknown rule, missing reason) are returned as
// findings under the AllowRule pseudo-rule.
func parseAllows(p *Package, known map[string]bool) ([]*allow, []Finding) {
	var allows []*allow
	var bad []Finding
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Finding{Pos: pos, Rule: AllowRule,
						Msg: fmt.Sprintf("malformed %s: missing rule name and reason (want %s <rule> <reason>)", allowPrefix, allowPrefix)})
					continue
				}
				rule := fields[0]
				if !known[rule] {
					bad = append(bad, Finding{Pos: pos, Rule: AllowRule,
						Msg: fmt.Sprintf("%s names unknown rule %q (known: %s)", allowPrefix, rule, strings.Join(RuleNames(), ", "))})
					continue
				}
				if len(fields) == 1 {
					bad = append(bad, Finding{Pos: pos, Rule: AllowRule,
						Msg: fmt.Sprintf("%s %s is missing its reason: every suppression must say why the rule is safe to break here", allowPrefix, rule)})
					continue
				}
				allows = append(allows, &allow{pos: pos, rule: rule})
			}
		}
	}
	return allows, bad
}

// enclosingFunc returns the *types.Func of the FuncDecl that encloses
// pos in file, or nil for positions outside any function declaration.
func enclosingFunc(p *Package, file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
