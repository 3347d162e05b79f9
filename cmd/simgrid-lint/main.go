// Command simgrid-lint machine-checks the kernel contracts DESIGN.md
// states in prose: deterministic event ordering, pooled-object
// ownership, goroutine- and Sprintf-free hot paths, the simcall
// blocking contract for completion handlers, and a public surface of
// the fenced packages that the module actually uses (api-rent, which
// runs on whole-module lints only).
//
// Usage:
//
//	go run ./cmd/simgrid-lint ./...          # the whole module (CI)
//	go run ./cmd/simgrid-lint ./internal/msg # one package
//	go run ./cmd/simgrid-lint -rules         # list the rules
//	go run ./cmd/simgrid-lint -only det-maprange,hot-sprintf ./...
//
// Findings print as file:line:col: message [rule] and make the command
// exit 1. A finding is suppressed by annotating the offending line (or
// the line directly above it) with a mandatory reason:
//
//	for k := range m { //lint:allow det-maprange keys re-sorted below
//
// Suppressions are themselves checked: an unknown rule name, a missing
// reason, or a stale annotation (the rule no longer fires there) is an
// error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	listRules := flag.Bool("rules", false, "list the registered rules and exit")
	only := flag.String("only", "", "comma-separated rule IDs to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simgrid-lint [-only rule,rule] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listRules {
		for _, r := range lint.Rules() {
			fmt.Printf("%-24s %s\n", r.Name, r.Doc)
		}
		return
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simgrid-lint:", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simgrid-lint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadPatterns(flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simgrid-lint:", err)
		os.Exit(2)
	}

	var rules []string
	if *only != "" {
		rules = strings.Split(*only, ",")
	}
	findings := lint.Run(pkgs, lint.DefaultConfig(), rules...)
	for _, f := range findings {
		// Print module-relative paths so output is stable across
		// checkouts.
		if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = rel
		}
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simgrid-lint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
