// TestDeterminism pins the scheduler contract the simcall refactor must
// preserve: a seeded MSG workload produces a bit-identical event order
// on every run. The workload couples every pair through a shared
// backbone link (so completions interact through the MaxMin share),
// mixes transfers, computations, sleeps and same-instant completions,
// and logs every wake. It is replayed five times with pooling on and
// five with it off (pooltest.Replay), so nondeterminism introduced by a
// scheduler or recycling change is caught by plain `go test`.
package simgrid

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/pool/pooltest"
	"repro/internal/surf"
)

// determinismPlatform wires nPairs sender/receiver pairs through
// per-pair access links plus one shared backbone, so every transfer
// shares bandwidth with every other.
func determinismPlatform(t *testing.T, nPairs int) *platform.Platform {
	t.Helper()
	pf := platform.New()
	backbone := &platform.Link{Name: "backbone", Bandwidth: 5e8, Latency: 5e-4}
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		if err := pf.AddHost(&platform.Host{Name: src, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		if err := pf.AddHost(&platform.Host{Name: dst, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		up := &platform.Link{Name: fmt.Sprintf("up%d", i), Bandwidth: 1e8, Latency: 1e-4}
		down := &platform.Link{Name: fmt.Sprintf("down%d", i), Bandwidth: 1e8, Latency: 1e-4}
		if err := pf.AddRoute(src, dst, []*platform.Link{up, backbone, down}); err != nil {
			t.Fatal(err)
		}
	}
	return pf
}

// runSeededWorkload executes the workload for one seed and returns the
// wake-ordered event log.
func runSeededWorkload(t *testing.T, pf *platform.Platform, nPairs, rounds int, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	var log []string
	record := func(p *msg.Process, what string, round int) {
		log = append(log, fmt.Sprintf("%.9e pid%d %s r%d", env.Now(), p.PID(), what, round))
	}
	const channel = 7
	for i := 0; i < nPairs; i++ {
		i := i
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		bytes := 1e4 * (1 + rng.Float64()*9)
		flops := 1e5 * (1 + rng.Float64()*9)
		sleep := rng.Float64() * 1e-3
		lockstep := i%3 == 0 // a third of the pairs use identical sizes
		if lockstep {
			bytes, flops, sleep = 5e4, 5e5, 0
		}
		if _, err := env.NewProcess("recv", dst, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				task, err := p.Get(channel)
				if err != nil {
					return err
				}
				record(p, "got "+task.Name, r)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := env.NewProcess("send", src, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if sleep > 0 {
					if err := p.Sleep(sleep); err != nil {
						return err
					}
				}
				if err := p.Put(msg.NewTask(fmt.Sprintf("t%d", i), 0, bytes), dst, channel); err != nil {
					return err
				}
				record(p, "sent", r)
				if err := p.Execute(msg.NewTask("c", flops, 0)); err != nil {
					return err
				}
				record(p, "computed", r)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return log
}

func TestDeterminism(t *testing.T) {
	const nPairs, rounds, seed = 40, 6, 12345
	ref := pooltest.Replay(t, 5, func() []byte {
		log := runSeededWorkload(t, determinismPlatform(t, nPairs), nPairs, rounds, seed)
		return []byte(strings.Join(log, "\n"))
	})
	if n := strings.Count(string(ref), "\n") + 1; n != nPairs*rounds*3 {
		t.Fatalf("event log has %d entries, want %d", n, nPairs*rounds*3)
	}
}
