// Package partest lets a test run par.For loops at a chosen width.
package partest

import (
	"runtime"
	"strconv"
	"testing"
)

// SetGOMAXPROCS sets GOMAXPROCS, and with it the width of every
// top-level par.For, to n for the rest of the test, restoring the old
// value in t.Cleanup. GOMAXPROCS is process-wide, so the test must not
// run in parallel with others: the t.Setenv call enforces that (it
// panics under t.Parallel) and hands child processes the same width.
func SetGOMAXPROCS(t testing.TB, n int) {
	t.Helper()
	t.Setenv("GOMAXPROCS", strconv.Itoa(n))
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}
