//go:build !simcheck

// Package simcheck holds the switch of the check build: go test
// -tags=simcheck (or go run -tags=simcheck) compiles into the kernel
// the invariant checks a normal build leaves out. Each check sits
// behind the constant On, so the default build carries no trace of it.
// Today there are two: maxmin's fairness certificate, run on the whole
// system after every Solve, and core's timer-heap audit, run every
// kernel turn.
package simcheck

// On reports whether the check build is compiled in.
const On = false
