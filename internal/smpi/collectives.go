// MPI collectives built over the point-to-point layer with the
// algorithms MPICH uses at small scale: binomial trees for Bcast and
// Reduce, a gather+release Barrier, linear Gather/Scatter, and pairwise
// Alltoall. Internal messages use negative tags so they never collide
// with application traffic.

package smpi

import "fmt"

// Internal collective tags.
const (
	tagBarrier = -1
	tagBcast   = -2
	tagReduce  = -3
	tagGather  = -4
	tagScatter = -5
	tagA2A     = -6
)

// ctrlBytes is the simulated size of a zero-payload control message.
const ctrlBytes = 64

// Barrier blocks until every rank reached it (MPI_Barrier):
// all-to-root gather of tokens, then a root-to-all release broadcast
// over the binomial tree.
func (r *Rank) Barrier() error {
	if r.rank != 0 {
		if err := r.Send(0, tagBarrier, nil, ctrlBytes); err != nil {
			return err
		}
	} else {
		for i := 1; i < r.Size(); i++ {
			if _, _, err := r.Recv(AnySource, tagBarrier); err != nil {
				return err
			}
		}
	}
	_, err := r.Bcast(0, nil, ctrlBytes)
	return err
}

// Bcast distributes root's data to every rank along a binomial tree
// (MPI_Bcast). Every rank receives the returned value; bytes is the
// payload size governing each hop's simulated duration.
func (r *Rank) Bcast(root int, data any, bytes float64) (any, error) {
	n := r.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: root %d", ErrRank, root)
	}
	// Standard MPICH binomial tree over virtual ranks rooted at 0.
	vrank := (r.rank - root + n) % n

	// Receive phase: walk up to the bit that identifies our parent.
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			v, _, err := r.Recv(parent, tagBcast)
			if err != nil {
				return nil, err
			}
			data = v
			break
		}
		mask <<= 1
	}
	// Send phase: forward to children at every bit below ours.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := vrank + mask; vrank&mask == 0 && child < n {
			dst := (child + root) % n
			if err := r.Send(dst, tagBcast, data, bytes); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Reduce combines every rank's value with op, delivering the result to
// root (MPI_Reduce); other ranks receive 0. bytes sizes each hop.
func (r *Rank) Reduce(root int, value float64, op Op, bytes float64) (float64, error) {
	n := r.Size()
	if root < 0 || root >= n {
		return 0, fmt.Errorf("%w: root %d", ErrRank, root)
	}
	if op == nil {
		return 0, fmt.Errorf("%w: nil op", ErrMismatch)
	}
	vrank := (r.rank - root + n) % n
	// Binomial tree, leaves inward: at each round, ranks with the
	// current bit set send to their parent and leave.
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			return 0, r.Send(parent, tagReduce, value, bytes) // done: non-root ranks get 0
		}
		child := vrank | mask
		if child < n {
			v, _, err := r.Recv((child+root)%n, tagReduce)
			if err != nil {
				return 0, err
			}
			value = op(value, v.(float64))
		}
	}
	return value, nil
}

// Allreduce is Reduce-to-0 followed by a broadcast of the result
// (MPI_Allreduce).
func (r *Rank) Allreduce(value float64, op Op, bytes float64) (float64, error) {
	red, err := r.Reduce(0, value, op, bytes)
	if err != nil {
		return 0, err
	}
	out, err := r.Bcast(0, red, bytes)
	if err != nil {
		return 0, err
	}
	return out.(float64), nil
}

// Gather collects every rank's contribution at root (MPI_Gather): the
// returned slice (indexed by rank) is only valid at root.
func (r *Rank) Gather(root int, data any, bytes float64) ([]any, error) {
	n := r.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: root %d", ErrRank, root)
	}
	if r.rank != root {
		return nil, r.Send(root, tagGather, data, bytes)
	}
	out := make([]any, n)
	out[root] = data
	for i := 0; i < n-1; i++ {
		v, src, err := r.Recv(AnySource, tagGather)
		if err != nil {
			return nil, err
		}
		out[src] = v
	}
	return out, nil
}

// Scatter distributes items[i] from root to rank i (MPI_Scatter); the
// items argument is only read at root.
func (r *Rank) Scatter(root int, items []any, bytes float64) (any, error) {
	n := r.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: root %d", ErrRank, root)
	}
	if r.rank == root {
		if len(items) != n {
			return nil, fmt.Errorf("%w: scatter needs %d items, got %d", ErrMismatch, n, len(items))
		}
		for i := 0; i < n; i++ {
			if i == root {
				continue
			}
			if err := r.Send(i, tagScatter, items[i], bytes); err != nil {
				return nil, err
			}
		}
		return items[root], nil
	}
	v, _, err := r.Recv(root, tagScatter)
	return v, err
}

// Alltoall exchanges items[i] with every rank i (MPI_Alltoall),
// returning the slice of items received (indexed by source rank). The
// exchange is scheduled pairwise to avoid head-of-line blocking.
func (r *Rank) Alltoall(items []any, bytes float64) ([]any, error) {
	n := r.Size()
	if len(items) != n {
		return nil, fmt.Errorf("%w: alltoall needs %d items, got %d", ErrMismatch, n, len(items))
	}
	out := make([]any, n)
	out[r.rank] = items[r.rank]
	// Shifted ring: at step s, send to rank+s and receive from rank-s.
	// With rendezvous (blocking) sends, ordering matters: a rank sends
	// first only when its target has a higher rank; the highest rank of
	// every dependency chain posts its receive first, so each step's
	// exchanges unwind without deadlock for any n.
	for step := 1; step < n; step++ {
		to := (r.rank + step) % n
		from := (r.rank - step + n) % n
		sendFirst := r.rank < to
		if sendFirst {
			if err := r.Send(to, tagA2A, items[to], bytes); err != nil {
				return nil, err
			}
		}
		v, src, err := r.Recv(from, tagA2A)
		if err != nil {
			return nil, err
		}
		out[src] = v
		if !sendFirst {
			if err := r.Send(to, tagA2A, items[to], bytes); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
