// Package deep is the second hop of the interproc fixtures: the actual
// nondeterminism sinks, two calls away from the package held to the
// contract. Nothing here is flagged — deep is not a deterministic package —
// the findings surface at the distant callers.
package deep

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() }

// Pick consults the global math/rand stream.
func Pick(n int) int { return rand.Intn(n) }

// Clean is a pure helper: no clock, no rand.
func Clean(x int) int { return x * 2 }
