package msg

// RetryPolicy bounds and paces Retry: how many attempts in total, and
// how long (in simulated seconds) to back off between them.
type RetryPolicy struct {
	// Attempts is the total number of tries (first call included);
	// values below 1 mean a single attempt.
	Attempts int
	// Backoff is the simulated-time sleep before each retry (none
	// before the first attempt). Zero retries immediately.
	Backoff float64
}

// Retry runs fn until it returns nil or the policy's attempts are
// exhausted, sleeping the backoff in simulated time between attempts.
// It returns nil on the first success, the last error otherwise. The
// sleep is a regular simcall: a kill during it unwinds like any blocked
// operation, and a host failure surfaces as its error, returned as-is —
// Retry never retries past its own process dying.
func Retry(p *Process, pol RetryPolicy, fn func() error) error {
	attempts := max(pol.Attempts, 1)
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			p.env.retries++
		}
		if i > 0 && pol.Backoff > 0 {
			if serr := p.Sleep(pol.Backoff); serr != nil {
				return serr
			}
		}
		if err = fn(); err == nil {
			return nil
		}
	}
	return err
}
