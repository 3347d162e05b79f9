// Campaign specification: the declarative grid. Each axis entry is a
// named, self-contained recipe (platform shape, workload shape, solver
// knobs, fault process); the cartesian product of the axes is the run
// list. Specs load from JSON (cmd/sweep -spec) or are built in code
// (the bundled campaigns, tests).

package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/simdag"
	"repro/internal/surf"
)

// PlatformSpec names one platform recipe.
type PlatformSpec struct {
	Name string `json:"name"`
	// Kind selects the builder: "cluster", "dumbbell", "multisite", or
	// "waxman".
	Kind string `json:"kind"`
	// Hosts is the host count (per side for dumbbell, per site for
	// multisite, node count for waxman).
	Hosts int `json:"hosts"`
	// Sites is the cluster count for multisite (default 2).
	Sites int `json:"sites,omitempty"`
	// Power, Bandwidth, Latency parameterize the hosts and edge links;
	// zero takes the defaults (1e9 flop/s, 1.25e8 B/s, 1e-4 s).
	Power     float64 `json:"power,omitempty"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
	Latency   float64 `json:"latency,omitempty"`
	// Backbone inserts a shared cluster backbone of that bandwidth.
	Backbone float64 `json:"backbone,omitempty"`
	// Seed fixes the waxman topology draw. It is a platform property,
	// not a run seed: the same spec always builds the same platform.
	Seed int64 `json:"seed,omitempty"`
}

func (p *PlatformSpec) defaults() (power, bw, lat float64) {
	power, bw, lat = p.Power, p.Bandwidth, p.Latency
	if power <= 0 {
		power = 1e9
	}
	if bw <= 0 {
		bw = 1.25e8
	}
	if lat <= 0 {
		lat = 1e-4
	}
	return power, bw, lat
}

// Build constructs the platform and returns it with its scheduling
// host pool (deterministic order).
func (p *PlatformSpec) Build() (*platform.Platform, []string, error) {
	power, bw, lat := p.defaults()
	switch p.Kind {
	case "cluster":
		pf, hosts, err := platform.NewCluster(platform.ClusterConfig{
			Prefix: p.Name, Hosts: p.Hosts, Power: power,
			Bandwidth: bw, Latency: lat, Backbone: p.Backbone,
		})
		return pf, hosts, err
	case "dumbbell":
		pf, left, right, err := platform.NewDumbbell(platform.DumbbellConfig{
			LeftHosts: p.Hosts, RightHosts: p.Hosts, Power: power,
			EdgeBandwidth: bw, EdgeLatency: lat,
			BottleneckBandwidth: bw / 2, BottleneckLatency: lat,
		})
		return pf, append(left, right...), err
	case "multisite":
		sites := p.Sites
		if sites < 2 {
			sites = 2
		}
		cfg := platform.MultiSiteConfig{WANBandwidth: 4 * bw, WANLatency: 100 * lat}
		for i := 0; i < sites; i++ {
			cfg.Sites = append(cfg.Sites, platform.ClusterConfig{
				Prefix: fmt.Sprintf("%s-s%d-", p.Name, i), Hosts: p.Hosts,
				Power: power, Bandwidth: bw, Latency: lat,
			})
		}
		pf, bySite, err := platform.NewMultiSite(cfg)
		if err != nil {
			return nil, nil, err
		}
		var hosts []string
		for _, site := range bySite {
			hosts = append(hosts, site...)
		}
		return pf, hosts, nil
	case "waxman":
		pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(p.Hosts, p.Seed))
		if err != nil {
			return nil, nil, err
		}
		var hosts []string
		for _, h := range pf.Hosts() {
			hosts = append(hosts, h.Name)
		}
		return pf, hosts, nil
	default:
		return nil, nil, fmt.Errorf("sweep: platform %q: unknown kind %q", p.Name, p.Kind)
	}
}

// WorkloadSpec names one DAG recipe.
type WorkloadSpec struct {
	Name string `json:"name"`
	// Kind selects the generator: "layered" (simdag.RandomLayered,
	// seeded per run) or "dax" (load Path).
	Kind      string  `json:"kind"`
	Layers    int     `json:"layers,omitempty"`
	Width     int     `json:"width,omitempty"`
	ExtraDeps float64 `json:"extra_deps,omitempty"`
	CommProb  float64 `json:"comm_prob,omitempty"`
	MinFlops  float64 `json:"min_flops,omitempty"`
	MaxFlops  float64 `json:"max_flops,omitempty"`
	MinBytes  float64 `json:"min_bytes,omitempty"`
	MaxBytes  float64 `json:"max_bytes,omitempty"`
	// PtaskProb/PtaskSlots draw parallel tasks into the layers (see
	// simdag.RandomConfig).
	PtaskProb  float64 `json:"ptask_prob,omitempty"`
	PtaskSlots int     `json:"ptask_slots,omitempty"`
	Path       string  `json:"path,omitempty"` // dax file
}

// Build populates the simulation with the workload. Layered workloads
// draw from runSeed, so the DAG is part of the run's seeded identity.
func (w *WorkloadSpec) Build(s *simdag.Simulation, runSeed int64) error {
	switch w.Kind {
	case "layered":
		cfg := simdag.DefaultRandomConfig(w.Layers, w.Width, runSeed)
		if w.ExtraDeps > 0 {
			cfg.ExtraDeps = w.ExtraDeps
		}
		if w.CommProb > 0 {
			cfg.CommProb = w.CommProb
		}
		if w.MaxFlops > 0 {
			cfg.MinFlops, cfg.MaxFlops = w.MinFlops, w.MaxFlops
		}
		if w.MaxBytes > 0 {
			cfg.MinBytes, cfg.MaxBytes = w.MinBytes, w.MaxBytes
		}
		cfg.PtaskProb = w.PtaskProb
		cfg.PtaskSlots = w.PtaskSlots
		_, err := simdag.RandomLayered(s, cfg)
		return err
	case "dax":
		f, err := os.Open(w.Path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = simdag.LoadDAX(s, f)
		return err
	default:
		return fmt.Errorf("sweep: workload %q: unknown kind %q", w.Name, w.Kind)
	}
}

// SolverSpec names one surf configuration.
type SolverSpec struct {
	Name string `json:"name"`
	// NoRTTWeight disables Config.WeightByRTT.
	NoRTTWeight bool `json:"no_rtt_weight,omitempty"`
}

// Config materializes the surf configuration.
func (sv *SolverSpec) Config() surf.Config {
	cfg := surf.DefaultConfig()
	if sv.NoRTTWeight {
		cfg.WeightByRTT = false
	}
	return cfg
}

// FaultSpec names one failure process, applied to the platform's hosts.
// A zero MTBF means no faults (the "none" axis entry).
type FaultSpec struct {
	Name string  `json:"name"`
	MTBF float64 `json:"mtbf,omitempty"`
	MTTR float64 `json:"mttr,omitempty"`
	// Dist is "exp" (default) or "weibull" with Shape.
	Dist  string  `json:"dist,omitempty"`
	Shape float64 `json:"shape,omitempty"`
	// Horizon bounds the failure process (default 1e4 s).
	Horizon float64 `json:"horizon,omitempty"`
	// Hosts limits injection to the first N pool hosts (0 = all).
	Hosts int `json:"hosts,omitempty"`
}

// Active reports whether this entry injects anything.
func (f *FaultSpec) Active() bool { return f.MTBF > 0 }

// Params expands the spec against a concrete host pool.
func (f *FaultSpec) Params(hosts []string) (faults.Params, error) {
	dist := faults.Exponential
	switch f.Dist {
	case "", "exp":
	case "weibull":
		dist = faults.Weibull
	default:
		return faults.Params{}, fmt.Errorf("sweep: faults %q: unknown dist %q", f.Name, f.Dist)
	}
	target := hosts
	if f.Hosts > 0 && f.Hosts < len(hosts) {
		target = hosts[:f.Hosts]
	}
	horizon := f.Horizon
	if horizon <= 0 {
		horizon = 1e4
	}
	mttr := f.MTTR
	if mttr <= 0 {
		mttr = f.MTBF / 10
	}
	return faults.Params{
		Horizon: horizon,
		Classes: []faults.Class{{
			Name: f.Name, Hosts: target,
			MTBF: f.MTBF, MTTR: mttr, Dist: dist, Shape: f.Shape,
		}},
	}, nil
}

// Spec is a complete campaign description. Axes left empty take a
// single neutral entry (default solver, no faults) so minimal specs
// stay small.
type Spec struct {
	Name       string         `json:"name"`
	Platforms  []PlatformSpec `json:"platforms"`
	Workloads  []WorkloadSpec `json:"workloads"`
	Schedulers []string       `json:"schedulers"`
	Solvers    []SolverSpec   `json:"solvers,omitempty"`
	Faults     []FaultSpec    `json:"faults,omitempty"`
	Seeds      []int64        `json:"seeds"`
}

// Load reads a Spec from a JSON file and validates it. Like the
// platform and deployment loaders it rejects unknown fields: a typo, or
// a knob that no longer exists, is an error rather than a silent
// default.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f, path)
}

// parse is Load on a reader; name labels decoding errors.
func parse(r io.Reader, name string) (*Spec, error) {
	var sp Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", name, err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Validate checks the grid is well-formed: every axis non-empty (after
// defaulting), every name (and seed) unique within its axis and free of
// '/', every scheduler known — so no two runs share a key.
func (sp *Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("sweep: campaign needs a name")
	}
	if len(sp.Platforms) == 0 || len(sp.Workloads) == 0 ||
		len(sp.Schedulers) == 0 || len(sp.Seeds) == 0 {
		return fmt.Errorf("sweep: campaign %q: platforms, workloads, schedulers and seeds must each have at least one entry", sp.Name)
	}
	if len(sp.Solvers) == 0 {
		sp.Solvers = []SolverSpec{{Name: "default"}}
	}
	if len(sp.Faults) == 0 {
		sp.Faults = []FaultSpec{{Name: "none"}}
	}
	seen := make(map[string]bool)
	unique := func(axis, name string) error {
		if name == "" {
			return fmt.Errorf("sweep: campaign %q: unnamed %s entry", sp.Name, axis)
		}
		if strings.Contains(name, "/") {
			// "/" separates a run key's parts: "a/b"+"c" would be "a"+"b/c".
			return fmt.Errorf("sweep: campaign %q: %s %q: a name may not contain '/'", sp.Name, axis, name)
		}
		k := axis + ":" + name
		if seen[k] {
			return fmt.Errorf("sweep: campaign %q: duplicate %s %q", sp.Name, axis, name)
		}
		seen[k] = true
		return nil
	}
	for i := range sp.Platforms {
		if err := unique("platform", sp.Platforms[i].Name); err != nil {
			return err
		}
	}
	for i := range sp.Workloads {
		if err := unique("workload", sp.Workloads[i].Name); err != nil {
			return err
		}
	}
	for i := range sp.Solvers {
		if err := unique("solver", sp.Solvers[i].Name); err != nil {
			return err
		}
	}
	for i := range sp.Faults {
		if err := unique("faults", sp.Faults[i].Name); err != nil {
			return err
		}
	}
	for _, s := range sp.Schedulers {
		if simdag.Scheduler(s) == nil {
			return fmt.Errorf("sweep: campaign %q: unknown scheduler %q", sp.Name, s)
		}
		if err := unique("scheduler", s); err != nil {
			return err
		}
	}
	for i, seed := range sp.Seeds {
		for _, prev := range sp.Seeds[:i] {
			if seed == prev {
				return fmt.Errorf("sweep: campaign %q: duplicate seed %d", sp.Name, seed)
			}
		}
	}
	return nil
}
