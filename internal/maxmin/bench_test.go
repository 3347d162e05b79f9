package maxmin

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// BenchmarkSolveSharedBottleneck is the solver system of the
// msg_backbone workload, without the simulator around it: 2000 flows,
// two edges each (a private link in one of seven bandwidth classes plus
// the one backbone sized to be everybody's bottleneck), five RTT weight
// classes, the TCP gamma bound of each class. One iteration is what one
// round of one pair costs the solver — a transfer completes (remove,
// solve), the next one joins in its latency phase (zero weight: a
// re-solve that changes no rate but may not be skipped, the walk order
// having moved), and enters the bandwidth phase (SetWeight, solve).
// It reports ns per triple and logs a digest of every rate, so two
// kernels can be compared for speed and for bits in one run.
func BenchmarkSolveSharedBottleneck(b *testing.B) {
	const (
		n        = 2000
		bwFactor = 0.92 // surf.DefaultConfig().BandwidthFactor
		gamma    = 4194304
		rttRef   = 1e-3
	)
	s := NewSystem()
	backbone := s.NewConstraint(1e6 * n * bwFactor)
	private := make([]*Constraint, n)
	vars := make([]*Variable, n)
	lat := func(i int) float64 { return 1e-4*(1+float64(i%5)) + 1e-4 }
	join := func(i int, weight float64) {
		vars[i] = s.NewVariable(weight, gamma/(2*lat(i)))
		s.Expand(private[i], vars[i], 1)
		s.Expand(backbone, vars[i], 1)
	}
	for i := range vars {
		private[i] = s.NewConstraint(1e8 * (1 + 0.15*float64(i%7)) * bwFactor)
		join(i, rttRef/lat(i))
	}
	s.Solve()
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		i := it * 7919 % n // completions do not come in creation order
		s.RemoveVariable(vars[i])
		s.Solve()
		join(i, 0)
		s.Solve()
		s.SetWeight(vars[i], rttRef/lat(i))
		s.Solve()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/triple")
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vars {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Value()))
		h.Write(buf[:])
	}
	b.Logf("%d triples, value digest %016x", b.N, h.Sum64())
}
