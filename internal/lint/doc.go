// Package lint is the project's static-analysis suite: it machine-checks
// the kernel contracts that DESIGN.md states in prose and that replay
// tests can only probabilistically witness — deterministic event
// ordering, pooled-object ownership, goroutine-free and allocation-free
// hot paths, and the simcall blocking contract.
//
// The suite is deliberately stdlib-only (go/parser + go/types with the
// "source" importer); it does not depend on golang.org/x/tools. Each
// rule is registered under a stable ID:
//
//	det-maprange            no range over a map on a simulation path
//	det-wallclock           no time.Now / global math/rand in simulation packages
//	det-goroutine           no go statements or iter.Pull outside approved spawn sites
//	pool-literal            pooled types registered, and only scrubbed by literal in their factories
//	pool-use-after-release  no reads of an object after it was released
//	simcall-in-handler      Completion handlers cannot reach blocking simcalls
//	hot-sprintf             no fmt.Sprintf in concat-converted hot packages
//	api-rent                every export of a fenced package has a non-test use
//
// api-rent needs every use in the module, so it runs only when the
// linted set is a whole module (see wholeModule), as `./...` is.
//
// A finding is suppressed with an in-source annotation carrying a
// mandatory reason, placed on the offending line or alone on the line
// directly above it:
//
//	for k := range m { //lint:allow det-maprange keys are re-sorted below
//
// Malformed annotations (unknown rule, missing reason) and stale ones
// (the named rule no longer fires there) are themselves findings, so
// suppressions cannot rot silently.
//
// cmd/simgrid-lint is the command-line driver; the fixture harness in
// this package (Check / // want "…" expectations under testdata/)
// pins each rule's positive and negative cases.
package lint
