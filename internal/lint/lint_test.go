package lint

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// One loader for the whole test binary: module-internal packages and
// stdlib dependencies type-check once and are cached.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(filepath.Join("..", ".."))
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

func fixture(t *testing.T, name string) *Package {
	t.Helper()
	p, err := testLoader(t).LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return p
}

func TestDetMapRangeFixture(t *testing.T) {
	p := fixture(t, "detmaprange")
	Check(t, p, FixtureConfig(), "det-maprange")
}

func TestDetWallclockFixture(t *testing.T) {
	p := fixture(t, "detwallclock")
	Check(t, p, FixtureConfig(), "det-wallclock")
}

// The instrtrace fixture pins the determinism contract trace-emission
// code lives under (instr is in both DetPkgs and WallclockPkgs): a map
// walk in an emitter reorders events between runs and a host-clock
// timestamp breaks bit-identical traces, while the creation-order
// slice walk and the explicitly allowed profiler seam are clean.
func TestInstrTraceFixture(t *testing.T) {
	p := fixture(t, "instrtrace")
	Check(t, p, FixtureConfig(), "det-maprange", "det-wallclock")
}

// The faultsched fixture pins the determinism contract the faults
// package lives under (it is in both DetPkgs and WallclockPkgs):
// schedule compilation must use locally seeded generators and ordered
// expansion, so both rules run over the same fixture.
func TestFaultSchedFixture(t *testing.T) {
	p := fixture(t, "faultsched")
	Check(t, p, FixtureConfig(), "det-wallclock", "det-maprange")
}

func TestDetGoroutineFixture(t *testing.T) {
	p := fixture(t, "detgoroutine")
	cfg := FixtureConfig()
	cfg.GoroutineAllow[p.Path+".Spawn"] = true
	cfg.GoroutineAllow[p.Path+".start"] = true
	Check(t, p, cfg, "det-goroutine")
}

func TestPoolLiteralFixture(t *testing.T) {
	p := fixture(t, "poolliteral")
	cfg := FixtureConfig()
	cfg.PooledTypes[p.Path+".Pooled"] = []string{"factory.go"}
	Check(t, p, cfg, "pool-literal")
}

func TestPoolListRegisteredFixture(t *testing.T) {
	p := fixture(t, "poollist")
	cfg := FixtureConfig()
	cfg.PooledTypes[p.Path+".registered"] = []string{"factory.go"}
	Check(t, p, cfg, "pool-literal")
}

func TestPoolUseAfterReleaseFixture(t *testing.T) {
	p := fixture(t, "poolrelease")
	Check(t, p, FixtureConfig(), "pool-use-after-release")
}

func TestSimcallInHandlerFixture(t *testing.T) {
	p := fixture(t, "simcallhandler")
	cfg := FixtureConfig()
	cfg.CompletionIfaces = []string{p.Path + ".Completion"}
	cfg.BlockingFuncs["(*"+p.Path+".proc).BlockOn"] = true
	Check(t, p, cfg, "simcall-in-handler")
}

func TestHotSprintfFixture(t *testing.T) {
	p := fixture(t, "hotsprintf")
	Check(t, p, FixtureConfig(), "hot-sprintf")
}

// TestAPIRentFixture pins api-rent over a two-package module: unused
// exports of the fenced package (a func, a method, a var) are flagged;
// one used from the other package, methods reached through another
// package's interface or fmt.Stringer, and an export carrying an allow
// are clean; an allow on an export that found a caller is stale.
func TestAPIRentFixture(t *testing.T) {
	pkgs, err := testLoader(t).LoadPatterns("internal/lint/testdata/src/apirent/...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d fixture packages, want 2", len(pkgs))
	}
	cfg := FixtureConfig()
	cfg.RentPkgs = map[string]bool{pkgs[0].Path: true}
	CheckAll(t, pkgs, cfg, "api-rent")

	// A subset is not a whole module: api-rent does not run there, so
	// it neither flags the exports nor judges their allows stale.
	if findings := Run(pkgs[:1], cfg, "api-rent"); len(findings) != 0 {
		t.Errorf("api-rent ran on a package subset:\n%s", dump(findings))
	}
}

// TestAllowClean pins the suppression happy path: both placement forms
// (same line, line above) with a reason suppress the finding, and a
// used allow is not reported as stale. The fixture has no want
// comments, so Check fails on any surviving finding.
func TestAllowClean(t *testing.T) {
	p := fixture(t, "allowclean")
	Check(t, p, FixtureConfig(), "det-maprange")
}

// TestAllowBad pins the suppression failure modes: a reason-less allow
// and an unknown rule name are findings AND do not suppress the
// violation they sit on; a stale allow (rule never fires there) is a
// finding.
func TestAllowBad(t *testing.T) {
	p := fixture(t, "allowbad")
	findings := Run([]*Package{p}, FixtureConfig(), "det-maprange")

	byRule := map[string]int{}
	var allowMsgs []string
	for _, f := range findings {
		byRule[f.Rule]++
		if f.Rule == AllowRule {
			allowMsgs = append(allowMsgs, f.Msg)
		}
	}
	if byRule["det-maprange"] != 2 {
		t.Errorf("want 2 unsuppressed det-maprange findings (malformed allows must not suppress), got %d:\n%s",
			byRule["det-maprange"], dump(findings))
	}
	if byRule[AllowRule] != 3 {
		t.Errorf("want 3 allow-machinery findings, got %d:\n%s", byRule[AllowRule], dump(findings))
	}
	for _, want := range []string{"missing its reason", "unknown rule", "stale"} {
		found := false
		for _, m := range allowMsgs {
			if strings.Contains(m, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no allow-machinery finding mentions %q:\n%s", want, dump(findings))
		}
	}
}

// TestStaleOnlyForExecutedRules pins that an allow for a rule that did
// not run is not reported stale: staleness is only decidable for rules
// that executed.
func TestStaleOnlyForExecutedRules(t *testing.T) {
	p := fixture(t, "allowclean")
	// Run a rule that never fires in this fixture; the det-maprange
	// allows must not be flagged stale because det-maprange never ran.
	if findings := Run([]*Package{p}, FixtureConfig(), "hot-sprintf"); len(findings) != 0 {
		t.Errorf("allows for a non-executed rule reported: \n%s", dump(findings))
	}
}

// TestRuleRegistry pins the advertised rule set: the 8 contract rules,
// stable IDs, no duplicates.
func TestRuleRegistry(t *testing.T) {
	want := []string{
		"det-maprange", "det-wallclock", "det-goroutine",
		"pool-literal", "pool-use-after-release",
		"simcall-in-handler", "hot-sprintf", "api-rent",
	}
	got := RuleNames()
	if len(got) != len(want) {
		t.Fatalf("rule registry: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rule registry: got %v, want %v", got, want)
		}
	}
}

// TestInjectedViolationFails pins the command's contract end to end at
// the library level: a tree with a violation yields findings (the
// driver then exits non-zero), and the same tree with the violation
// suppressed-with-reason is clean.
func TestInjectedViolationFails(t *testing.T) {
	p := fixture(t, "detmaprange")
	if len(Run([]*Package{p}, FixtureConfig(), "det-maprange")) == 0 {
		t.Fatal("injected map-range violations produced no findings")
	}
}

// TestModuleClean is the real gate: the whole module, under the
// shipped DefaultConfig, must be finding-free — every contract either
// holds or carries a reasoned allow. This is exactly what
// `go run ./cmd/simgrid-lint ./...` checks in CI.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped under -short")
	}
	pkgs, err := testLoader(t).LoadPatterns("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("module walk found only %d packages, expected the full tree", len(pkgs))
	}
	if !wholeModule(pkgs) {
		t.Fatal("the module walk is not a whole module: api-rent would not run")
	}
	findings := Run(pkgs, DefaultConfig())
	if len(findings) > 0 {
		t.Errorf("module is not lint-clean (%d findings):\n%s", len(findings), dump(findings))
	}
}

func dump(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}
