//go:build !nopool

// Package pool holds the one free list (List) every pooled type in the
// stack is kept on — core's parked process goroutines, maxmin's
// variables and constraint elements, surf's actions and resources
// slices, msg's rendezvous and chain records — the one chunk allocator
// (Slab) an engine's misses are carved from, and the one switch behind
// the lists. Only List reads Enabled; nothing but tests writes it.
//
// Build with -tags=nopool to start with it off: everything is then
// allocated (or spawned) fresh, the reference behaviour the pooled
// build must be bit-identical to.
package pool

// Enabled gates the free lists. A var, not a const, so a package's
// equivalence tests can flip it to replay both behaviours in one build.
var Enabled = true
