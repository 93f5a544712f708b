package obs

import (
	"math"
	"testing"
)

// TestHistogramBucketBoundaryInclusive locks in the Prometheus `le`
// semantics: an observation exactly equal to a bucket's upper bound must be
// counted in that bucket, not the next one. Exercised over every bound of
// DefLatencyBuckets plus values just below and just above each bound.
func TestHistogramBucketBoundaryInclusive(t *testing.T) {
	for i, bound := range DefLatencyBuckets {
		r := NewRegistry()
		h := r.Histogram("boundary", DefLatencyBuckets)

		h.Observe(bound)
		snap := r.Snapshot()
		counts := snap.Histograms[0].Counts
		if counts[i] != 1 {
			t.Errorf("observation %v (== bound %d) landed in bucket %v, want bucket %d (le is inclusive)",
				bound, i, counts, i)
		}

		// Nudge one ULP either side: below stays in the same bucket, above
		// spills into the next.
		below := math.Nextafter(bound, math.Inf(-1))
		above := math.Nextafter(bound, math.Inf(1))
		h.Observe(below)
		h.Observe(above)
		counts = r.Snapshot().Histograms[0].Counts
		if counts[i] != 2 {
			t.Errorf("bound %v: bucket %d holds %d observations, want 2 (exact + one-ULP-below)", bound, i, counts[i])
		}
		if counts[i+1] != 1 {
			t.Errorf("bound %v: bucket %d holds %d observations, want 1 (one-ULP-above)", bound, i+1, counts[i+1])
		}
	}
}

// TestHistogramOverflowAndNaN: values beyond the last bound (and NaN, which
// compares false against every bound) land in the +Inf bucket; nothing is
// lost and Count stays conserved.
func TestHistogramOverflowAndNaN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("overflow", DefLatencyBuckets)
	last := DefLatencyBuckets[len(DefLatencyBuckets)-1]
	h.Observe(last)        // last finite bucket, inclusive
	h.Observe(last * 2)    // +Inf bucket
	h.Observe(math.Inf(1)) // +Inf bucket
	h.Observe(math.NaN())  // +Inf bucket (no panic, no loss)
	counts := r.Snapshot().Histograms[0].Counts
	n := len(DefLatencyBuckets)
	if counts[n-1] != 1 {
		t.Errorf("last finite bucket holds %d, want 1", counts[n-1])
	}
	if counts[n] != 3 {
		t.Errorf("+Inf bucket holds %d, want 3", counts[n])
	}
	if got := h.Count(); got != 4 {
		t.Errorf("Count() = %d, want 4", got)
	}
}
