//go:build simcheck

package simcheck

// On reports whether the check build is compiled in.
const On = true
