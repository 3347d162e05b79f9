// Fixture for det-goroutine: go statements, and iter.Pull/Pull2
// references (pull.go), are findings unless the enclosing function is
// on the approved spawn-site allowlist (the test config approves Spawn
// below and start in pull.go).
package detgoroutine

func work() {}

func rogue() {
	go work() // want "go statement in .*rogue.* is not an approved spawn site"
}

func rogueNested() {
	f := func() {
		go work() // want "go statement in .*rogueNested.* is not an approved spawn site"
	}
	f()
}

// Spawn is the fixture's approved spawn site (cfg.GoroutineAllow).
func Spawn(fn func()) {
	go fn() // allowlisted: no finding
}

func plainCall() {
	work() // not a go statement: fine
}
