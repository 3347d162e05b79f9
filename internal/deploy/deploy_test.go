package deploy

import (
	"strings"
	"testing"

	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/surf"
)

func testEnv(t testing.TB, hosts int) *msg.Environment {
	t.Helper()
	pf, _, err := platform.NewCluster(platform.ClusterConfig{
		Prefix: "node", Hosts: hosts, Power: 1e9,
		Bandwidth: 1.25e8, Latency: 5e-5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return msg.NewEnvironment(pf, surf.Config{BandwidthFactor: 1, LatencyFactor: 1})
}

func TestLoadValidDeployment(t *testing.T) {
	src := `{
	  "processes": [
	    {"host": "node0", "function": "master", "args": ["4"]},
	    {"host": "node1", "function": "worker", "daemon": true, "count": 3}
	  ]
	}`
	s, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(s.Processes) != 2 || s.Processes[1].Count != 3 || !s.Processes[1].Daemon {
		t.Errorf("spec = %+v", s)
	}
}

func TestLoadErrors(t *testing.T) {
	for _, src := range []string{
		`{`,
		`{"processes": []}`,
		`{"unknown": 1}`,
		`{"processes": [{"host": "node0", "function": "f", "count": -2}]}`,
	} {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("Load(%q) accepted", src)
		}
	}
}

func TestApplyRunsProcesses(t *testing.T) {
	env := testEnv(t, 4)
	spec := &Spec{Processes: []ProcessSpec{
		{Host: "node0", Function: "send", Args: []string{"hi"}},
		{Host: "node1", Function: "recv"},
	}}
	var got string
	reg := Registry{
		"send": func(p *msg.Process, args []string) error {
			task := msg.NewTask("m", 0, 1e3)
			task.Data = args[0]
			return p.Put(task, "node1", 1)
		},
		"recv": func(p *msg.Process, args []string) error {
			task, err := p.Get(1)
			if err != nil {
				return err
			}
			got = task.Data.(string)
			return nil
		},
	}
	if err := Run(env, spec, reg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != "hi" {
		t.Errorf("got %q", got)
	}
}

func TestApplyCountInstantiatesMany(t *testing.T) {
	env := testEnv(t, 4)
	ran := 0
	spec := &Spec{Processes: []ProcessSpec{
		{Host: "node2", Function: "tick", Count: 5},
	}}
	reg := Registry{
		"tick": func(p *msg.Process, args []string) error { ran++; return nil },
	}
	if err := Run(env, spec, reg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 5 {
		t.Errorf("ran %d times, want 5", ran)
	}
}

func TestApplyDaemonsDoNotBlockTermination(t *testing.T) {
	env := testEnv(t, 4)
	spec := &Spec{Processes: []ProcessSpec{
		{Host: "node0", Function: "server", Daemon: true},
		{Host: "node1", Function: "client"},
	}}
	reg := Registry{
		"server": func(p *msg.Process, args []string) error {
			for {
				if _, err := p.Get(9); err != nil {
					return err
				}
			}
		},
		"client": func(p *msg.Process, args []string) error {
			return p.Put(msg.NewTask("x", 0, 1e3), "node0", 9)
		},
	}
	if err := Run(env, spec, reg); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestApplyUnknownFunction(t *testing.T) {
	env := testEnv(t, 4)
	spec := &Spec{Processes: []ProcessSpec{{Host: "node0", Function: "ghost"}}}
	if err := spec.Apply(env, Registry{}); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestApplyUnknownHost(t *testing.T) {
	env := testEnv(t, 4)
	spec := &Spec{Processes: []ProcessSpec{{Host: "mars", Function: "f"}}}
	reg := Registry{"f": func(p *msg.Process, args []string) error { return nil }}
	if err := spec.Apply(env, reg); err == nil {
		t.Error("unknown host accepted")
	}
}
