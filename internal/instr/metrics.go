package instr

import (
	"io"
	"sort"
	"strconv"
)

// Registry holds named metrics — counters and gauges — and snapshots
// them as deterministic JSON: names are emitted sorted, values with
// Go's shortest-round-trip float formatting, so two identical runs
// produce identical bytes.
//
// Layers keep their counts in plain fields and store them by name at
// collection time (the MetricsInto convention); a name is registered
// by its first Add, Set or Max, and its kind fixed then. Every method
// is a no-op on a nil registry. The registry is simulation-context
// only — no locking, exactly like every other kernel structure.
type Registry struct {
	names []string // registration order; sorted at snapshot
	items map[string]*metric
}

// metric is one named value: a count, or a gauge's float.
type metric struct {
	counter bool
	n       uint64
	v       float64
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{items: make(map[string]*metric)}
}

func (r *Registry) get(name string, counter bool) *metric {
	if m, ok := r.items[name]; ok {
		return m
	}
	m := &metric{counter: counter}
	r.items[name] = m
	r.names = append(r.names, name)
	return m
}

// Add adds n to the named counter.
func (r *Registry) Add(name string, n uint64) {
	if r != nil {
		r.get(name, true).n += n
	}
}

// Set stores v in the named gauge.
func (r *Registry) Set(name string, v float64) {
	if r != nil {
		r.get(name, false).v = v
	}
}

// Max stores v in the named gauge if it exceeds the current value
// (high-water marks).
func (r *Registry) Max(name string, v float64) {
	if r == nil {
		return
	}
	if m := r.get(name, false); v > m.v {
		m.v = v
	}
}

// SetPool registers the three <name>.hit/.miss/.steady_free entries
// for one free list — the uniform shape every pooled type reports.
func (r *Registry) SetPool(name string, ps PoolStat) {
	if r == nil {
		return
	}
	r.Add(name+".hit", ps.Hit)
	r.Add(name+".miss", ps.Miss)
	r.Set(name+".steady_free", float64(ps.Free))
}

// WriteJSON writes the snapshot as one flat JSON object, keys sorted,
// trailing newline: {"name": value, ...}. Counters emit as integers,
// gauges as shortest-round-trip floats. The byte output is a pure
// function of the registered state.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := w.Write([]byte("{}\n"))
		return err
	}
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	buf := make([]byte, 0, 64+32*len(names))
	buf = append(buf, '{', '\n')
	for i, name := range names {
		m := r.items[name]
		buf = append(buf, "  "...)
		buf = strconv.AppendQuote(buf, name)
		buf = append(buf, ':', ' ')
		if m.counter {
			buf = strconv.AppendUint(buf, m.n, 10)
		} else {
			buf = appendFloat(buf, m.v)
		}
		if i < len(names)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, '}', '\n')
	_, err := w.Write(buf)
	return err
}

// appendFloat formats a float64 as valid JSON (shortest round-trip;
// never the bare Inf/NaN tokens JSON rejects).
func appendFloat(buf []byte, v float64) []byte {
	if v != v || v > 1e308 || v < -1e308 {
		return append(buf, "null"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}
