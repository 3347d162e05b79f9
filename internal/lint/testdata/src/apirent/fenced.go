// Fixture for api-rent, fenced side: every export needs a use in a
// non-test file of the linted module (the user package below), or an
// allow naming the paper call or the test that needs it.
package apirent

import "fmt"

// Used is called by the user package.
func Used() {}

// Unused has no caller.
func Unused() {} // want "exported func Unused has no non-test use"

// Value is a fenced type.
type Value struct{ n int }

// Get is called by the user package.
func (v *Value) Get() int { return v.n }

// Peek has no caller.
func (v *Value) Peek() int { return v.n } // want "exported method Peek has no non-test use"

// Handle is reached through user.Handler, another package's interface.
func (v *Value) Handle() {}

// String is reached through fmt.Stringer.
func (v Value) String() string { return fmt.Sprint(v.n) }

// Default is read by the user package.
var Default Value

// Spare is read by nobody.
var Spare Value // want "exported var Spare has no non-test use"

// Watch has no caller but is paper API.
func Watch() {} //lint:allow api-rent SD_task_watch; apirent TestWatch

// Renewed found a caller, so its allow is stale.
func Renewed() {} //lint:allow api-rent MSG_process_resume; apirent TestResume // want "stale //lint:allow api-rent"
