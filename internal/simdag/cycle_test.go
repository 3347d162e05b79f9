package simdag

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// TestForwardDAGSkipsCyclePass: while every edge runs from an older task
// to a newer one, creation order is a topological order, so the cycle
// check builds no Kahn order and leaves the in-degree scratch alone, and
// the DAG still simulates to the end.
func TestForwardDAGSkipsCyclePass(t *testing.T) {
	s := New(starPlatform(t, 2), exactConfig())
	var tasks []*Task
	for i := 0; i < 64; i++ {
		c := s.NewTask("c"+strconv.Itoa(i), 1e6)
		if err := c.Schedule(hostName(i % 2)); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := s.AddDependency(tasks[i-1], c); err != nil {
				t.Fatal(err)
			}
		}
		if i > 1 {
			if err := s.AddDependency(tasks[i-2], c); err != nil {
				t.Fatal(err)
			}
		}
		c.indeg = 7 // a Kahn pass would overwrite it
		tasks = append(tasks, c)
	}
	if a := testing.AllocsPerRun(5, func() {
		s.depsDirty = true
		if err := s.checkCycles(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("the cycle check of a forward-only DAG allocated %.0f objects, want 0", a)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.indeg != 7 {
			t.Fatalf("%s: in-degree scratch rewritten to %d: the Kahn pass ran", task.Name(), task.indeg)
		}
		if task.State() != Done {
			t.Fatalf("%s ended %v", task.Name(), task.State())
		}
	}
}

// TestBackEdgeCycles: an edge against creation order makes the check
// run. One that closes a cycle is caught; so is a cycle a later forward
// edge closes through an earlier, harmless back edge, whether or not a
// check ran in between: the back edge is remembered.
func TestBackEdgeCycles(t *testing.T) {
	for _, name := range []string{"closing back edge", "forward edge after back edge", "forward edge after a check"} {
		t.Run(name, func(t *testing.T) {
			s := New(starPlatform(t, 1), exactConfig())
			a, b, c := s.NewTask("A", 1), s.NewTask("B", 1), s.NewTask("C", 1)
			edges := [][2]*Task{{a, b}, {b, c}, {c, a}}
			if name != "closing back edge" {
				edges = [][2]*Task{{c, b}, {b, a}, {a, c}} // back, back, then forward
			}
			for i, e := range edges {
				if name == "forward edge after a check" && i == len(edges)-1 {
					if _, err := s.Simulate(); err != nil {
						t.Fatalf("Simulate before the closing edge: %v", err)
					}
				}
				if err := s.AddDependency(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Simulate(); !errors.Is(err, ErrCycle) {
				t.Fatalf("Simulate on a cycle returned %v, want ErrCycle", err)
			}
		})
	}
}

// TestLoadDAXRejectsCycle: two jobs that each name the other as parent.
func TestLoadDAXRejectsCycle(t *testing.T) {
	const dax = `<adag name="loop">
  <job id="A" runtime="1"/>
  <job id="B" runtime="1"/>
  <child ref="B"><parent ref="A"/></child>
  <child ref="A"><parent ref="B"/></child>
</adag>`
	s := New(starPlatform(t, 1), exactConfig())
	if _, err := LoadDAX(s, strings.NewReader(dax)); !errors.Is(err, ErrCycle) {
		t.Fatalf("LoadDAX of a cyclic workflow returned %v, want ErrCycle", err)
	}
}
