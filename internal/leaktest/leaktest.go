// Package leaktest counts the goroutines this module started, for the tests
// that assert a run leaves none of them behind. Every package with a go
// statement has such a test (DESIGN.md §9.4).
package leaktest

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Count returns the number of live goroutines this module started, read off
// their "created by" frames: exact where a runtime.NumGoroutine delta would
// also see runtime and test-harness goroutines coming and going on their own
// schedule.
func Count() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by adavp/")
}

// Check polls until at most base of the module's goroutines are alive,
// failing t with a full stack dump if the count never gets there within 5s.
// base is a Count taken before the run under test started.
func Check(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for Count() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines started by the module: %d still alive after 5s, baseline %d\n%s",
				Count(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
