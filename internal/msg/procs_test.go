package msg

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/pool/pooltest"
)

// pairDigest runs n sender/receiver pairs of uneven sizes over the
// shared LAN link and digests every process's finish time, in finish
// order. It reports failures with t.Error: it also runs off the test
// goroutine.
func pairDigest(t *testing.T, n int) uint64 {
	env := NewEnvironment(lanPlatform(t), exact())
	h := fnv.New64a()
	finish := func(p *Process) {
		fmt.Fprintf(h, "%s %016x\n", p.Name(), math.Float64bits(p.Now()))
	}
	for i := 0; i < n; i++ {
		ch, size, delay := i, float64(1+i%7)*1e5, float64(i%3)*1e-3
		if _, err := env.NewProcess(fmt.Sprintf("recv%d", i), "server", func(p *Process) error {
			defer finish(p)
			task, err := p.Get(ch)
			if err != nil {
				return err
			}
			return p.Execute(task)
		}); err != nil {
			t.Error(err)
			return 0
		}
		if _, err := env.NewProcess(fmt.Sprintf("send%d", i), "client", func(p *Process) error {
			defer finish(p)
			if err := p.Sleep(delay); err != nil {
				return err
			}
			return p.Put(NewTask("m", size*10, size), "server", ch)
		}); err != nil {
			t.Error(err)
			return 0
		}
	}
	if err := env.Run(); err != nil {
		t.Errorf("Run: %v", err)
	}
	return h.Sum64()
}

// TestPairDigestAcrossGOMAXPROCS: the schedule is the kernel loop's,
// not the Go runtime's, so a pair workload finishes with the same
// digest at GOMAXPROCS 1 and 4, and at 4 also when four environments
// run at once and resume pooled coroutines from different goroutines;
// and the same again with the free lists off.
func TestPairDigestAcrossGOMAXPROCS(t *testing.T) {
	const n, want = 64, uint64(0xe3d4d6ab5a978a00)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var one uint64
	pooltest.Replay(t, 1, func() []byte {
		runtime.GOMAXPROCS(1)
		one = pairDigest(t, n)
		runtime.GOMAXPROCS(4)
		four := make([]uint64, 4)
		var wg sync.WaitGroup
		for i := range four {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				four[i] = pairDigest(t, n)
			}(i)
		}
		wg.Wait()
		for i, d := range four {
			if d != one {
				t.Errorf("environment %d at GOMAXPROCS 4: digest %#016x, at 1: %#016x", i, d, one)
			}
		}
		return fmt.Appendf(nil, "%016x", one)
	})
	t.Logf("digest %#016x", one)
	if one != want {
		t.Errorf("digest %#016x, want %#016x", one, want)
	}
}
