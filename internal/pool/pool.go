// Package pool holds the one free list (List) every pooled type in the
// stack is kept on — core's parked process goroutines, maxmin's
// variables and constraint elements, surf's actions and resources
// slices, msg's rendezvous and chain records — the one chunk allocator
// (Slab) an engine's misses are carved from, and the one switch behind
// the lists. Only List reads Enabled; nothing but tests writes it.
package pool

// Enabled gates the free lists. It is true in every build; only tests
// flip it, to replay a scenario with everything allocated (or spawned)
// fresh — the unpooled reference the pooled run must be bit-identical
// to (see pooltest.Replay).
var Enabled = true
