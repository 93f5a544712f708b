// Package helper is the first hop of the interproc fixtures: every
// function here is locally clean — no clock, no rand — so
// the per-package PR 3 analyzers see nothing. Only the call graph reveals
// what these forward to.
package helper

import "adavp/internal/lint/testdata/src/interproc/deep"

// Jitter is one hop from the wall clock.
func Jitter() int64 { return deep.Stamp() }

// Choose is one hop from math/rand.
func Choose(n int) int { return deep.Pick(n) }

// Pure stays clean all the way down.
func Pure(x int) int { return deep.Clean(x) }
