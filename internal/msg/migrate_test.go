package msg

import (
	"testing"

	"repro/internal/platform"
)

// migratePlatform: fast and slow host joined by a link.
func migratePlatform(t *testing.T) *platform.Platform {
	t.Helper()
	p := platform.New()
	if err := p.AddHost(&platform.Host{Name: "fast", Power: 2e9}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddHost(&platform.Host{Name: "slow", Power: 5e8}); err != nil {
		t.Fatal(err)
	}
	l := &platform.Link{Name: "l", Bandwidth: 1e8, Latency: 1e-4}
	if err := p.AddRoute("fast", "slow", []*platform.Link{l}); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMigrateChangesExecutionSpeed(t *testing.T) {
	env := NewEnvironment(migratePlatform(t), exact())
	var tFast, tSlow float64
	env.NewProcess("mover", "fast", func(p *Process) error {
		if err := p.Execute(NewTask("a", 1e9, 0)); err != nil { // 0.5 s at 2 Gflop/s
			return err
		}
		tFast = p.Now()
		if err := p.Migrate("slow"); err != nil {
			return err
		}
		if p.Host().Name != "slow" {
			t.Errorf("host = %s after migrate", p.Host().Name)
		}
		if err := p.Execute(NewTask("b", 1e9, 0)); err != nil { // 2 s at 0.5 Gflop/s
			return err
		}
		tSlow = p.Now()
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !approx(tFast, 0.5, 1e-6) {
		t.Errorf("first exec at %g, want 0.5", tFast)
	}
	if !approx(tSlow, 2.5, 1e-6) {
		t.Errorf("second exec at %g, want 2.5 (migrated to slow host)", tSlow)
	}
}

func TestMigrateChangesMailboxLocation(t *testing.T) {
	env := NewEnvironment(migratePlatform(t), exact())
	env.NewProcess("recv", "fast", func(p *Process) error {
		if err := p.Migrate("slow"); err != nil {
			return err
		}
		// Now listening on the slow host's channels.
		task, err := p.Get(7)
		if err != nil {
			return err
		}
		if task.Name != "to-slow" {
			t.Errorf("got %q", task.Name)
		}
		return nil
	})
	env.NewProcess("send", "fast", func(p *Process) error {
		p.Sleep(0.01)
		return p.Put(NewTask("to-slow", 0, 1e3), "slow", 7)
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMigrateValidation(t *testing.T) {
	env := NewEnvironment(migratePlatform(t), exact())
	env.NewProcess("p", "fast", func(p *Process) error {
		if err := p.Migrate("ghost"); err == nil {
			t.Error("unknown host accepted")
		}
		if err := p.Migrate("fast"); err != nil {
			t.Errorf("self migration: %v", err)
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMigrateTracksHostFailureTargets(t *testing.T) {
	// After migration, a failure of the NEW host kills the process.
	env := NewEnvironment(migratePlatform(t), exact())
	killed := false
	env.NewProcess("mover", "fast", func(p *Process) error {
		p.cp.OnExit(func(err error) {
			if err != nil {
				killed = true
			}
		})
		if err := p.Migrate("slow"); err != nil {
			return err
		}
		return p.Sleep(100)
	})
	env.NewProcess("saboteur", "fast", func(p *Process) error {
		p.Sleep(1)
		return env.Model().FailHost("slow")
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !killed {
		t.Error("migrated process survived its new host's failure")
	}
}
