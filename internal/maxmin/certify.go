package maxmin

import (
	"errors"
	"math"
	"strconv"
)

// certTol is certify's relative tolerance, a thousand times the
// solver's own 1e-9: the certificate judges the allocation, not the
// rounding of the rounds.
const certTol = 1e-6

// within reports a <= b up to certTol.
func within(a, b float64) bool { return a <= b+certTol*math.Abs(b) }

// certify checks the values of the whole system against the local
// characterisation of weighted, bounded max-min fairness (Bertsekas &
// Gallager, Data Networks §6.5). Exactly one allocation passes it, so
// nil means the values are the max-min allocation within certTol,
// whatever computed them. With share = value/weight:
//   - feasibility: a shared constraint's usage is at most its capacity,
//     and so is value*factor on a fatpipe edge; a value is at most its
//     bound;
//   - every active variable has a bottleneck: it is at its bound, at a
//     fatpipe's capacity, or on a saturated shared constraint where no
//     share is larger;
//   - an inactive variable (weight <= eps, no edge, or an edge of
//     capacity <= eps) has value 0.
//
// A value is +Inf only where nothing binds: no bound, and capacity +Inf
// on every edge. certify reads no solver summary, and reuses the
// constraints' round scratch (load is the usage, r the largest share),
// so it allocates only to report a violation.
func (s *System) certify() error {
	for _, c := range s.cnsts {
		c.load, c.r = 0, 0
		for _, e := range c.elems {
			if v := e.v; !math.IsInf(v.value, 1) { // checked on its variable
				c.load += v.value * e.factor
				if v.weight > eps {
					c.r = math.Max(c.r, v.value/v.weight)
				}
			}
		}
		if c.shared && !within(c.load, c.capacity) {
			return certErr("C", c.id, " usage ", c.load, " exceeds capacity ", c.capacity)
		}
	}
	for _, v := range s.vars {
		active := v.weight > eps && len(v.cnsts) > 0
		for _, e := range v.cnsts {
			active = active && e.c.capacity > eps
		}
		switch {
		case !active && v.value != 0:
			return certErr("V", v.id, " is inactive but has value ", v.value, ", weight ", v.weight)
		case !active:
			continue
		case !(v.value >= 0) || v.bound > 0 && !within(v.value, v.bound):
			return certErr("V", v.id, " has value ", v.value, ", bound ", v.bound)
		}
		share := v.value / v.weight
		bottleneck := v.bound > 0 && within(v.bound, v.value) || math.IsInf(share, 1)
		for _, e := range v.cnsts {
			c, use := e.c, v.value*e.factor
			switch {
			case math.IsInf(c.capacity, 1): // binds nothing
			case math.IsInf(use, 1) || !c.shared && !within(use, c.capacity):
				return certErr("V", v.id, " draws ", use, " on capacity ", c.capacity)
			case c.shared:
				bottleneck = bottleneck || within(c.capacity, c.load) && within(c.r, share)
			default:
				bottleneck = bottleneck || within(c.capacity, use)
			}
		}
		if !bottleneck {
			return certErr("V", v.id, " share ", share, " has no bottleneck, bound ", v.bound)
		}
	}
	return nil
}

// certErr names a violation by concatenation (hot-sprintf).
func certErr(kind string, id int, what string, x float64, than string, y float64) error {
	return errors.New("maxmin: certificate: " + kind + strconv.Itoa(id) + what +
		strconv.FormatFloat(x, 'g', -1, 64) + than + strconv.FormatFloat(y, 'g', -1, 64))
}
