// Package deploy implements SimGrid-style deployment descriptions: a
// JSON file mapping process functions to hosts, the counterpart of the
// paper's XML deployment files used with MSG_launch_application. An
// application registers its process functions by name; the deployment
// file instantiates them on platform hosts with arguments. The key
// invariant is declaration-order instantiation: processes are spawned
// exactly in file order, so a deployment is reproducible by
// construction.
//
//	{
//	  "processes": [
//	    {"host": "node0", "function": "master", "args": ["16"]},
//	    {"host": "node1", "function": "worker", "daemon": true},
//	    {"host": "node2", "function": "worker", "daemon": true}
//	  ]
//	}
package deploy

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/msg"
)

// Func is a deployable process body: the MSG process plus the args
// string list from the deployment file.
type Func func(p *msg.Process, args []string) error

// Registry maps function names to process bodies.
type Registry map[string]Func

// ProcessSpec is one process instantiation.
type ProcessSpec struct {
	Host     string   `json:"host"`
	Function string   `json:"function"`
	Args     []string `json:"args,omitempty"`
	// Daemon marks server-style processes that may outlive the
	// simulation (infinite loops).
	Daemon bool `json:"daemon,omitempty"`
	// Count instantiates the same spec several times (0 means 1;
	// Load rejects a negative count).
	Count int `json:"count,omitempty"`
}

// Spec is a full deployment.
type Spec struct {
	Processes []ProcessSpec `json:"processes"`
}

// Load parses a deployment description.
func Load(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("deploy: decoding JSON: %w", err)
	}
	if len(s.Processes) == 0 {
		return nil, fmt.Errorf("deploy: no processes")
	}
	for i, ps := range s.Processes {
		if ps.Count < 0 {
			return nil, fmt.Errorf("deploy: process %d (%s on %s): negative count %d", i, ps.Function, ps.Host, ps.Count)
		}
	}
	return &s, nil
}

// LoadFile parses a deployment description from a file.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Apply instantiates every process of the deployment on the
// environment, resolving functions through the registry. Processes are
// created in file order (they all start at time 0).
func (s *Spec) Apply(env *msg.Environment, reg Registry) error {
	for i, ps := range s.Processes {
		fn, ok := reg[ps.Function]
		if !ok {
			return fmt.Errorf("deploy: process %d: unknown function %q", i, ps.Function)
		}
		count := ps.Count
		if count <= 0 {
			count = 1
		}
		for c := 0; c < count; c++ {
			// Unique, readable process names: function@host(-k).
			name := fmt.Sprintf("%s@%s", ps.Function, ps.Host)
			if count > 1 {
				name = fmt.Sprintf("%s-%d", name, c)
			}
			args := ps.Args
			daemon := ps.Daemon
			p, err := env.NewProcess(name, ps.Host, func(mp *msg.Process) error {
				return fn(mp, args)
			})
			if err != nil {
				return fmt.Errorf("deploy: process %d (%s on %s): %w", i, ps.Function, ps.Host, err)
			}
			if daemon {
				p.Daemonize()
			}
		}
	}
	return nil
}

// Run is the one-call entry point: apply the deployment and run the
// simulation to completion.
func Run(env *msg.Environment, spec *Spec, reg Registry) error {
	if err := spec.Apply(env, reg); err != nil {
		return err
	}
	return env.Run()
}
