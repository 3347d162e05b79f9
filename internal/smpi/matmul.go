// The paper's SMPI example: 1-D matrix multiplication with a vertical
// strip decomposition. Matrices are distributed among processors;
// column blocks of A are broadcast at every step and each rank
// accumulates a rank-1 update into its local strip of C through an
// SMPI_BENCH_ONCE_RUN_ONCE block (the paper wraps cblas_dgemm; we wrap
// the equivalent Go loops — whatever runs inside is measured once and
// replayed).

package smpi

import (
	"errors"
	"fmt"
)

// MatMulConfig sizes the distributed multiplication C = A×B with
// A: M×K, B: K×N, C: M×N, strip-decomposed over the ranks.
type MatMulConfig struct {
	M, N, K int
}

// Validate checks divisibility by the rank count.
func (c MatMulConfig) Validate(ranks int) error {
	if c.M <= 0 || c.N <= 0 || c.K <= 0 {
		return errors.New("smpi: matmul dimensions must be positive")
	}
	if c.K%ranks != 0 || c.N%ranks != 0 {
		return fmt.Errorf("smpi: K=%d and N=%d must divide by %d ranks", c.K, c.N, ranks)
	}
	return nil
}

// MatMul1D executes the paper's parallel_mat_mult on one rank: each
// rank owns a K/p-column strip of A and an N/p-column strip of B and C.
// At step k the owner broadcasts column k of A (M doubles on the wire)
// and everyone accumulates the rank-1 update into its C strip inside a
// BenchOnce block. It returns this rank's C strip (M × N/p, row-major).
func MatMul1D(r *Rank, cfg MatMulConfig) ([]float64, error) {
	p := r.Size()
	if err := cfg.Validate(p); err != nil {
		return nil, err
	}
	M, N, K := cfg.M, cfg.N, cfg.K
	KK := K / p
	NN := N / p

	// Local strips, initialised to a deterministic pattern so the
	// result is verifiable: A[i][k] = i+k+1, B[k][j] = (k+1)*(j+1).
	a := make([]float64, M*KK) // columns my_id*KK .. my_id*KK+KK-1 of A
	for i := 0; i < M; i++ {
		for kk := 0; kk < KK; kk++ {
			k := r.rank*KK + kk
			a[i*KK+kk] = float64(i + k + 1)
		}
	}
	b := make([]float64, K*NN) // columns my_id*NN .. of B
	for k := 0; k < K; k++ {
		for jj := 0; jj < NN; jj++ {
			j := r.rank*NN + jj
			b[k*NN+jj] = float64((k + 1) * (j + 1))
		}
	}
	c := make([]float64, M*NN)

	for k := 0; k < K; k++ {
		// MPI_Bcast(buf_col, M, MPI_DOUBLE, k/KK, MPI_COMM_WORLD)
		owner := k / KK
		var payload any
		if owner == r.rank {
			col := make([]float64, M)
			for i := range col {
				col[i] = a[i*KK+k%KK]
			}
			payload = col
		}
		v, err := r.Bcast(owner, payload, float64(M*8))
		if err != nil {
			return nil, err
		}
		col := v.([]float64)

		// SMPI_BENCH block around the rank-1 update (the paper calls
		// cblas_dgemm inside SMPI_BENCH_ONCE_RUN_ONCE; we use the
		// always-run variant so the numeric result stays verifiable,
		// with the charged duration still measured exactly once).
		if _, err := r.BenchAlways("matmul-rank1-update", func() {
			for i := 0; i < M; i++ {
				ci := c[i*NN : (i+1)*NN]
				ai := col[i]
				bk := b[k*NN : (k+1)*NN]
				for j := 0; j < NN; j++ {
					ci[j] += ai * bk[j]
				}
			}
		}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// CheckMatMul verifies a rank's C strip against the closed form of the
// deterministic inputs: C[i][j] = Σ_k (i+k+1)(k+1)(j+1).
func CheckMatMul(rank, size int, cfg MatMulConfig, c []float64) error {
	M, N, K := cfg.M, cfg.N, cfg.K
	NN := N / size
	for i := 0; i < M; i++ {
		for jj := 0; jj < NN; jj++ {
			j := rank*NN + jj
			want := 0.0
			for k := 0; k < K; k++ {
				want += float64(i+k+1) * float64((k+1)*(j+1))
			}
			got := c[i*NN+jj]
			if diff := got - want; diff > 1e-6 || diff < -1e-6 {
				return fmt.Errorf("C[%d][%d] = %g, want %g", i, j, got, want)
			}
		}
	}
	return nil
}

// RunMatMul runs the full experiment on a platform: one rank per host,
// returning the simulated makespan. benchSeconds, when positive,
// preloads the rank-1-update measurement so results are deterministic
// (pass 0 to really measure the Go loops on the first execution).
func RunMatMul(w *World, cfg MatMulConfig, benchSeconds float64, verify bool) (float64, error) {
	if benchSeconds > 0 {
		w.SetBench("matmul-rank1-update", benchSeconds)
	}
	err := w.Run(func(r *Rank) error {
		c, err := MatMul1D(r, cfg)
		if err != nil || !verify {
			return err
		}
		return CheckMatMul(r.Rank(), r.Size(), cfg, c)
	})
	if err != nil {
		return 0, err
	}
	return w.env.Now(), nil
}
