// Fixture for api-rent, user side: the fenced package's one caller.
// The rule's scope leaves this package's own exports alone.
package user

import "repro/internal/lint/testdata/src/apirent"

// Handler is implemented by apirent.Value, which never names it.
type Handler interface{ Handle() }

// Run uses the fenced package.
func Run() int {
	apirent.Used()
	apirent.Renewed()
	return apirent.Default.Get()
}
