//go:build nopool

package pool

// Enabled is off in the -tags=nopool build.
var Enabled = false
