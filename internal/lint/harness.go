package lint

import (
	"regexp"
	"strconv"
	"testing"
)

// wantRe extracts the quoted regexps of a `// want "..." "..."` comment,
// which may also end a //lint:allow comment (to want a stale allow).
var wantRe = regexp.MustCompile(`^//(?:lint:allow [^"]*//)?\s*want((?:\s+"(?:[^"\\]|\\.)*")+)\s*$`)
var wantArgRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// expectation is one pending `// want` entry.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

// Check runs the named rules (plus the suppression machinery) over a
// fixture package and compares the findings against the package's
// `// want "regexp"` comments, analysistest-style: every finding must
// be wanted by a comment on its line, and every want must be matched
// by exactly one finding. Unmatched sides are test failures.
func Check(t *testing.T, p *Package, cfg *Config, rules ...string) {
	t.Helper()
	CheckAll(t, []*Package{p}, cfg, rules...)
}

// CheckAll is Check over a set of fixture packages linted together.
func CheckAll(t *testing.T, pkgs []*Package, cfg *Config, rules ...string) {
	t.Helper()
	var wants []*expectation
	for _, p := range pkgs {
		wants = append(wants, wantsOf(t, p)...)
	}

	for _, f := range Run(pkgs, cfg, rules...) {
		matched := false
		for _, w := range wants {
			if !w.met && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Msg) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.raw)
		}
	}
}

// wantsOf parses the `// want` expectations of a fixture package.
func wantsOf(t *testing.T, p *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				for _, q := range wantArgRe.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: want pattern %q does not compile: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	return wants
}

// FixtureConfig returns a Config for a self-contained fixture package:
// every scope map is nil (the rule applies everywhere it runs) and the
// release vocabulary matches the fixtures' naming. Tests extend it
// with fixture-local pooled types, allowlists and blocking sets.
func FixtureConfig() *Config {
	return &Config{
		GoroutineAllow: map[string]bool{},
		PooledTypes:    map[string][]string{},
		ReleaseMethods: map[string]bool{"Release": true},
		ReleaseFuncs:   map[string]bool{"RemoveVariable": true},
		BlockingFuncs:  map[string]bool{},
	}
}
