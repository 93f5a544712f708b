// Package bandsafe is the bandsafe fixture; it fans out through the real
// internal/par worker pool so the analyzer resolves the actual Rows symbol.
package bandsafe

import "adavp/internal/par"

// Racy accumulates into captured variables from concurrent bands.
func Racy(xs []float64) float64 {
	var sum float64
	count := 0
	par.Rows(len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want "band closure writes captured variable \"sum\""
			count++      // want "band closure writes captured variable \"count\""
		}
	})
	return sum / float64(count)
}

// Reentrant fans out from inside a band.
func Reentrant(dst []float64) {
	par.Rows(len(dst), func(lo, hi int) {
		par.Rows(hi-lo, func(lo2, hi2 int) { // want "reentrant par.Rows inside a band closure"
			for i := lo2; i < hi2; i++ {
				dst[lo+i] = 0
			}
		})
	})
}

// Banded is the contract-conforming shape: every write goes through a
// band-indexed element, and band-local variables are free.
func Banded(dst, src []float64) {
	par.Rows(len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := src[i] * 2
			dst[i] = v
		}
	})
}

// Suppressed shows a justified exception.
func Suppressed(xs []float64) int {
	hits := 0
	par.Rows(len(xs), func(lo, hi int) {
		if lo == 0 {
			//adavp:bandsafe-ok only the lo==0 band writes, so there is exactly one writer
			hits = 1
		}
	})
	return hits
}
