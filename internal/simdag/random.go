// Layered random DAG generation, the synthetic-workflow counterpart
// of platform.GenerateWaxman: tasks arranged in layers, every task
// depending on one or more tasks of the previous layer, a tunable
// fraction of the edges carrying data (comm tasks). The same seed
// always yields the same DAG, so benchmarks and determinism tests are
// reproducible.

package simdag

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/pool"
)

// RandomConfig parameterizes RandomLayered.
type RandomConfig struct {
	Layers int // number of layers (≥ 1)
	Width  int // compute tasks per layer (≥ 1)

	// ExtraDeps is the expected number of additional predecessors per
	// task beyond the guaranteed one (sampled from the previous layer).
	ExtraDeps float64

	// CommProb is the probability an edge carries data: the dependency
	// is then routed through a comm task of random size.
	CommProb           float64
	MinBytes, MaxBytes float64

	MinFlops, MaxFlops float64

	// PtaskProb is the probability a layer member is generated as a
	// parallel task (ptask) spanning PtaskSlots host slots instead of a
	// plain compute: per-slot flops drawn from the flops range, and a
	// ring of slot-to-slot transfers drawn from the bytes range. Zero
	// (the default) draws nothing, so pre-existing seeds are unchanged.
	PtaskProb  float64
	PtaskSlots int

	Seed int64
}

// DefaultRandomConfig returns a moderately connected workflow shape:
// tasks of 0.1–1 Gflop, one extra dependency on average, a third of
// the edges moving 0.1–1 MB.
func DefaultRandomConfig(layers, width int, seed int64) RandomConfig {
	return RandomConfig{
		Layers:    layers,
		Width:     width,
		ExtraDeps: 1,
		CommProb:  0.33,
		MinBytes:  1e5,
		MaxBytes:  1e6,
		MinFlops:  1e8,
		MaxFlops:  1e9,
		Seed:      seed,
	}
}

// RandomLayered populates the simulation with a random layered DAG and
// returns every created task (computes and comms) in creation order,
// NotScheduled.
func RandomLayered(s *Simulation, cfg RandomConfig) ([]*Task, error) {
	if cfg.Layers < 1 || cfg.Width < 1 {
		return nil, fmt.Errorf("simdag: random DAG needs ≥1 layer and width, got %d×%d", cfg.Layers, cfg.Width)
	}
	if cfg.MinFlops < 0 || cfg.MaxFlops < cfg.MinFlops {
		return nil, fmt.Errorf("simdag: bad flops range [%g,%g]", cfg.MinFlops, cfg.MaxFlops)
	}
	if cfg.MinBytes < 0 || cfg.MaxBytes < cfg.MinBytes {
		return nil, fmt.Errorf("simdag: bad bytes range [%g,%g]", cfg.MinBytes, cfg.MaxBytes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	uniform := func(lo, hi float64) float64 {
		if hi <= lo {
			return lo
		}
		return lo + rng.Float64()*(hi-lo)
	}

	var tasks []*Task
	var cells pool.Slab[float64] // ptask payloads, many to a chunk
	var rows pool.Slab[[]float64]
	prev := make([]*Task, 0, cfg.Width)
	cur := make([]*Task, 0, cfg.Width)
	link := func(from, to *Task) error {
		if cfg.CommProb > 0 && rng.Float64() < cfg.CommProb {
			c := s.NewCommTask(pool.Join(&s.names, from.name, "->", to.name), uniform(cfg.MinBytes, cfg.MaxBytes))
			tasks = append(tasks, c)
			if err := s.AddDependency(from, c); err != nil {
				return err
			}
			return s.AddDependency(c, to)
		}
		if to.dependsOn(from) { // a duplicate draw adds nothing
			return nil
		}
		return s.AddDependency(from, to)
	}
	slots := cfg.PtaskSlots
	if slots < 2 {
		slots = 2
	}
	for l := 0; l < cfg.Layers; l++ {
		cur = cur[:0]
		for w := 0; w < cfg.Width; w++ {
			var t *Task
			if cfg.PtaskProb > 0 && rng.Float64() < cfg.PtaskProb {
				flops, bytes := cells.Make(slots), rows.Make(slots)
				for i := range flops {
					flops[i] = uniform(cfg.MinFlops, cfg.MaxFlops)
					bytes[i] = cells.Make(slots) // cap == len: rows cannot append into each other
				}
				for i := range flops {
					bytes[i][(i+1)%slots] = uniform(cfg.MinBytes, cfg.MaxBytes)
				}
				var err error
				t, err = s.NewParallelTask(pool.Join(&s.names, "l", strconv.Itoa(l), "p", strconv.Itoa(w)), flops, bytes)
				if err != nil {
					return nil, err
				}
			} else {
				t = s.NewTask(pool.Join(&s.names, "l", strconv.Itoa(l), "t", strconv.Itoa(w)), uniform(cfg.MinFlops, cfg.MaxFlops))
			}
			tasks = append(tasks, t)
			cur = append(cur, t)
			if l == 0 {
				continue
			}
			// One guaranteed predecessor plus a geometric number of
			// extras, all from the previous layer.
			if err := link(prev[rng.Intn(len(prev))], t); err != nil {
				return nil, err
			}
			extra := 0
			for p := cfg.ExtraDeps / (1 + cfg.ExtraDeps); rng.Float64() < p; {
				extra++
				if extra >= len(prev) {
					break
				}
			}
			for i := 0; i < extra; i++ {
				if err := link(prev[rng.Intn(len(prev))], t); err != nil {
					return nil, err
				}
			}
		}
		prev, cur = cur, prev
	}
	return tasks, nil
}
