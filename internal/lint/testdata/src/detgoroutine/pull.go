package detgoroutine

import "iter"

// start is the fixture's approved coroutine site (cfg.GoroutineAllow).
func start(seq iter.Seq[int]) func() (int, bool) {
	next, _ := iter.Pull(seq) // allowlisted: no finding
	return next
}

func roguePull(seq iter.Seq[int]) {
	next, stop := iter.Pull(seq) // want "iter.Pull in .*roguePull.* is not an approved spawn site"
	defer stop()
	next()
}

func roguePull2(seq iter.Seq2[int, string]) {
	_, stop := iter.Pull2(seq) // want "iter.Pull2 in .*roguePull2.* is not an approved spawn site"
	stop()
}

func roguePullValue() {
	pull := iter.Pull[int] // want "iter.Pull in .*roguePullValue.* is not an approved spawn site"
	_ = pull
}

func pushIteration(seq iter.Seq[int]) {
	seq(func(int) bool { return true }) // a push iteration starts no coroutine: fine
	_ = start(seq)
}
