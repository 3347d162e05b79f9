package msg

import "testing"

// Not built with the free lists off: every round then carves its
// records and actions afresh, a chunk allocation every few rounds.

// TestChainPingPongAllocatesNothing: once the free lists and the two
// mailboxes are warm, a chain ping-pong round — two queued posts, two
// matches, two transfers — allocates no object. The mailbox queue is
// part of that: an emptied queue keeps its backing array.
func TestChainPingPongAllocatesNothing(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	ping := NewChain().
		Do(func(c *ChainProc) { c.SetTask(NewTask("ball", 0, 1e3)) }).
		Loop(0).PutReg("server", 0).Get(1).Do(func(c *ChainProc) { env.Engine().Stop() }).End().
		MustBuild()
	pong := NewChain().Loop(0).Get(0).PutReg("client", 1).End().MustBuild()
	for i, spec := range []*Chain{ping, pong} {
		host := []string{"client", "server"}[i]
		if _, err := env.StartChain(host, host, spec, &ChainConfig{Daemon: true}); err != nil {
			t.Fatal(err)
		}
	}
	rounds := 0
	round := func() {
		if err := env.Engine().RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		rounds++
	}
	for i := 0; i < 10; i++ {
		round() // warm-up: the pools fill, the queues get their arrays
	}
	at := env.Now()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a ping-pong round allocates %.2f objects, want 0", allocs)
	}
	if env.Now() <= at || env.pools[send].Stat().Hit < uint64(rounds) {
		t.Errorf("rounds did not run: now %g (was %g), send pool %+v", env.Now(), at, env.pools[send].Stat())
	}
}
