// Package track implements AdaVP's object tracker (§IV-C): extract good
// features inside the DNN-detected bounding boxes, follow them across the
// accumulated frames with pyramidal Lucas–Kanade optical flow, estimate a
// per-object moving vector, and shift the boxes accordingly. As a unique
// by-product (§IV-D.2), the tracker reports the mean motion velocity of its
// features — AdaVP's video-content changing-rate signal.
//
// Two implementations are provided behind one interface:
//
//   - PixelTracker runs the real algorithms over rendered frames. It is the
//     faithful reproduction, used by the motivation experiments (Fig. 2,
//     Table II) and the examples.
//
//   - ModelTracker is a calibrated statistical surrogate whose error growth
//     is fitted to the pixel tracker's decay curves. The large evaluation
//     sweeps (hundreds of thousands of frames across policies and settings)
//     use it so they finish in seconds; see DESIGN.md §1 for the
//     substitution argument.
package track

import (
	"math"

	"adavp/internal/core"
)

// Tracker follows a set of detections from a reference frame through
// subsequent frames.
type Tracker interface {
	// Init installs the reference frame and its detections, replacing any
	// previous state. It reports the number of feature points extracted
	// (0 for trackers that do not use features).
	Init(ref core.Frame, dets []core.Detection) int
	// Step advances to the next frame, returning the tracked detections and
	// the motion velocity observed between the previous and this frame
	// (pixels per frame, normalized by the frame gap — Eq. 3).
	Step(next core.Frame) ([]core.Detection, float64)
}

// Verify interface compliance.
var (
	_ Tracker = (*PixelTracker)(nil)
	_ Tracker = (*ModelTracker)(nil)
)

// maxPlausibleVelocity bounds believable Eq. 3 measurements: real content
// moves a few px/frame; anything near 1e6 is numerical garbage.
const maxPlausibleVelocity = 1e6

// ValidVelocity reports whether v is a usable motion-velocity measurement:
// finite, positive and physically plausible. Trackers under fault injection
// can emit NaN, ±Inf or absurd magnitudes; those must never reach
// adapt.Model.Next, where a poisoned comparison silently picks the wrong
// setting. Every engine screens each per-frame sample with this predicate.
func ValidVelocity(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0 && v < maxPlausibleVelocity
}

// median returns the median of xs (average of the two middle elements for
// even lengths), sorting xs in place — callers pass per-object displacement
// lists they are done with, so copying would only add a per-object,
// per-Step allocation. Empty input yields 0.
//
//adavp:hotpath
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Insertion sort: n is tiny (features per object).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}
