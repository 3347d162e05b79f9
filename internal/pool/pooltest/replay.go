// Package pooltest holds the replay helpers shared by the determinism
// suites: one line per suite instead of a CI lane per suite.
package pooltest

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/pool"
)

// Replay runs the scenario n times with the free lists on and n times
// with them off, and fails the test unless all 2n runs return the same
// bytes: a run's output is a pure function of its inputs, whatever gets
// recycled along the way. It returns those bytes.
func Replay(t *testing.T, n int, run func() []byte) []byte {
	t.Helper()
	pooled, fresh := ReplayPerMode(t, n, run)
	requireSame(t, pooled, fresh, "the pooled and the unpooled runs differ")
	return pooled
}

// ReplayPerMode is Replay for output that legitimately reports on the
// free lists themselves (a metrics snapshot with pool scoreboards): the
// n runs of each mode must agree with each other, the two modes need
// not. It returns each mode's bytes.
func ReplayPerMode(t *testing.T, n int, run func() []byte) (pooled, fresh []byte) {
	t.Helper()
	defer func(old bool) { pool.Enabled = old }(pool.Enabled)
	for _, on := range []bool{true, false} {
		pool.Enabled = on
		ref := run()
		for i := 1; i < n; i++ {
			requireSame(t, ref, run(), fmt.Sprintf("repeat %d with pool.Enabled=%v differs from that mode's first run", i, on))
		}
		if on {
			pooled = ref
		} else {
			fresh = ref
		}
	}
	return pooled, fresh
}

// requireSame fails the test at the first line two outputs disagree on.
func requireSame(t *testing.T, ref, got []byte, what string) {
	t.Helper()
	if bytes.Equal(ref, got) {
		return
	}
	rl, gl := bytes.Split(ref, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; ; i++ {
		r, g := []byte("<missing>"), []byte("<missing>")
		if i < len(rl) {
			r = rl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(r, g) {
			t.Fatalf("%s, first at line %d:\n  ref: %s\n  got: %s", what, i+1, r, g)
		}
	}
}
