package deploy

import (
	"bytes"
	"testing"

	"repro/internal/msg"
)

// FuzzDeployLoad feeds Load arbitrary bytes: every input is rejected
// with an error, or yields a deployment with no negative count that
// Apply either refuses (an unknown function or host) or instantiates on
// a two-host platform with a registry of no-op bodies, after which the
// simulation runs to the end.
func FuzzDeployLoad(f *testing.F) {
	f.Add([]byte(`{"processes": [
	  {"host": "node0", "function": "master", "args": ["4"]},
	  {"host": "node1", "function": "worker", "daemon": true, "count": 3}
	]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		for _, ps := range spec.Processes {
			if ps.Count < 0 {
				t.Fatalf("Load accepted count %d", ps.Count)
			}
			if ps.Count > 64 || len(spec.Processes) > 64 {
				return // large but well-formed: spawning it all proves nothing more
			}
		}
		noop := func(*msg.Process, []string) error { return nil }
		env := testEnv(t, 2)
		if err := spec.Apply(env, Registry{"master": noop, "worker": noop}); err != nil {
			return
		}
		if err := env.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
}
