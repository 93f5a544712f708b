package track

import (
	"adavp/internal/core"
	"adavp/internal/features"
	"adavp/internal/flow"
	"adavp/internal/geom"
	"adavp/internal/imgproc"
)

// PixelTracker is the faithful §IV-C implementation over rendered frames.
//
// Workflow (matching the paper's numbered list):
//  1. Receive the detection results of frame n₀ and the frame raster.
//  2. Extract good feature points inside all bounding boxes (§V uses box
//     masks so extraction cost scales with object area, not frame area).
//  3. Associate features to the boxes containing them.
//  4. Estimate optical flow to the next processed frame with pyramidal
//     Lucas–Kanade.
//  5. Shift each box by the median moving vector of its features.
//  6. Repeat from the shifted boxes.
type PixelTracker struct {
	// FeatureParams configures good-features-to-track extraction.
	FeatureParams features.Params
	// FlowParams configures the Lucas–Kanade solver.
	FlowParams flow.Params
	// PyramidLevels bounds the image pyramids built per frame.
	PyramidLevels int
	// ForwardBackward enables round-trip verification of tracked features
	// (~2x flow cost): a feature is kept only when tracking it backward
	// returns within FBMaxError pixels of its origin. Catches features that
	// silently slid onto other surfaces.
	ForwardBackward bool
	// FBMaxError is the round-trip rejection threshold (<= 0 selects 1.0).
	FBMaxError float64

	// prevPyr and sparePyr alternate frame over frame: Step rebuilds the
	// spare pyramid's buffers from the new frame and swaps, instead of
	// reallocating the whole stack every frame. scratch feeds the imgproc
	// temporaries of the rebuild; flowScratch keeps the Lucas–Kanade
	// gradient buffers alive across Steps, featScratch the Shi–Tomasi
	// buffers across Inits.
	prevPyr     *imgproc.Pyramid
	sparePyr    *imgproc.Pyramid
	scratch     imgproc.Scratch
	flowScratch flow.Scratch
	featScratch features.Scratch
	prevIndex   int
	objs        []trackedObject
	bounds      geom.Rect
	masks       []geom.Rect // initFeatures' box list, reset per Init

	// Per-step working lists of stepFlow, kept across steps: the flow batch,
	// one object's displacements, and the forward-backward results.
	batch     []geom.Point
	dxs, dys  []float64
	fbResults []flow.Result
}

// trackedObject is one detection being followed.
type trackedObject struct {
	det  core.Detection
	pts  []geom.Point
	lost bool
}

// NewPixelTracker returns a tracker with the OpenCV-equivalent defaults the
// paper's implementation uses.
func NewPixelTracker() *PixelTracker {
	fp := features.DefaultParams()
	fp.MaxCorners = 60
	fp.MinDistance = 4
	return &PixelTracker{
		FeatureParams: fp,
		FlowParams:    flow.DefaultParams(),
		PyramidLevels: 3,
	}
}

// Init implements Tracker. The reference frame must carry pixels; a frame
// without pixels clears the tracker. It is InitWithPyramid fed from the
// tracker's own spare pyramid.
func (t *PixelTracker) Init(ref core.Frame, dets []core.Detection) int {
	n, released := t.InitWithPyramid(ref, dets, t.spareFor(ref))
	t.sparePyr = released
	return n
}

// InitWithPyramid is Init for pipelined callers that already built the
// reference frame's pyramid in a prefetch stage: the tracker takes ownership
// of pyr and returns the pyramid it no longer needs (nil on the first call),
// so the caller can trade one pyramid for another instead of allocating.
func (t *PixelTracker) InitWithPyramid(ref core.Frame, dets []core.Detection, pyr *imgproc.Pyramid) (n int, released *imgproc.Pyramid) {
	t.objs = t.objs[:0]
	released = t.prevPyr
	t.prevPyr = nil
	if ref.Pixels == nil {
		// Cleared: pyr was not consumed — keep it as the spare so the
		// one-in-one-out pyramid accounting still balances.
		if released == nil {
			released = pyr
		} else if t.sparePyr == nil {
			t.sparePyr = pyr
		}
		return 0, released
	}
	t.bounds = geom.Rect{W: float64(ref.Pixels.W), H: float64(ref.Pixels.H)}
	n = t.initFeatures(ref, dets)
	t.prevPyr = pyr
	t.prevIndex = ref.Index
	return n, released
}

// initFeatures extracts good features inside the detection boxes and builds
// the tracked-object list.
func (t *PixelTracker) initFeatures(ref core.Frame, dets []core.Detection) int {
	t.masks = t.masks[:0]
	for _, d := range dets {
		t.masks = append(t.masks, d.Box)
	}
	feats := t.featScratch.Detect(ref.Pixels, t.masks, t.FeatureParams)
	total := 0
	for _, d := range dets {
		obj := trackedObject{det: d}
		for _, f := range feats {
			if d.Box.Contains(f.Pt) {
				obj.pts = append(obj.pts, f.Pt)
			}
		}
		total += len(obj.pts)
		t.objs = append(t.objs, obj)
	}
	return total
}

// spareFor takes the pyramid whose buffers are free and rebuilds it from f's
// pixels — what a prefetch stage hands the pipelined callers ready-made.
func (t *PixelTracker) spareFor(f core.Frame) *imgproc.Pyramid {
	p := t.sparePyr
	if p == nil {
		p = &imgproc.Pyramid{}
	}
	t.sparePyr = nil
	if f.Pixels != nil {
		p.Rebuild(f.Pixels, t.PyramidLevels, &t.scratch)
	}
	return p
}

// Step implements Tracker. Objects whose features are all lost keep their
// last box (the paper's tracker cannot re-acquire without a new detection).
// It is StepWithPyramid fed from the tracker's own spare pyramid.
func (t *PixelTracker) Step(next core.Frame) ([]core.Detection, float64) {
	dets, velocity, released := t.StepWithPyramid(next, t.spareFor(next))
	t.sparePyr = released
	return dets, velocity
}

// StepWithPyramid is Step for pipelined callers that already built the next
// frame's pyramid in a prefetch stage. The tracker takes ownership of pyr
// and returns the pyramid it no longer needs; when the step degenerates
// (no pixels, or no reference yet) pyr itself comes straight back.
func (t *PixelTracker) StepWithPyramid(next core.Frame, pyr *imgproc.Pyramid) (dets []core.Detection, velocity float64, released *imgproc.Pyramid) {
	if next.Pixels == nil || t.prevPyr == nil {
		return t.heldBoxes(), 0, pyr
	}
	dets, velocity = t.stepFlow(next, pyr)
	released = t.prevPyr
	t.prevPyr = pyr
	t.prevIndex = next.Index
	return dets, velocity, released
}

// heldBoxes returns every object's current box unchanged — the degenerate
// step when there is nothing to track against.
func (t *PixelTracker) heldBoxes() []core.Detection {
	out := make([]core.Detection, 0, len(t.objs))
	for _, o := range t.objs {
		out = append(out, o.det)
	}
	return out
}

// stepFlow tracks the live features from prevPyr into nextPyr and shifts each
// box by its median flow. The caller owns the pyramid swap. The returned
// velocity implements Eq. 3: the average displacement magnitude of the
// features matched between the two frames, normalized by the frame gap
// (0 when none matched). Its working lists live on the tracker and are reset
// per step; only the returned detections are a fresh slice, because they are
// published.
func (t *PixelTracker) stepFlow(next core.Frame, nextPyr *imgproc.Pyramid) ([]core.Detection, float64) {
	out := make([]core.Detection, 0, len(t.objs))

	// Gather all live feature points into one flow batch, object by object.
	t.batch = t.batch[:0]
	for oi := range t.objs {
		if !t.objs[oi].lost {
			t.batch = append(t.batch, t.objs[oi].pts...)
		}
	}
	var results []flow.Result
	if t.ForwardBackward {
		t.fbResults = t.fbResults[:0]
		for _, r := range t.flowScratch.TrackFB(t.prevPyr, nextPyr, t.batch, t.FlowParams, t.FBMaxError) {
			t.fbResults = append(t.fbResults, r.Result)
		}
		results = t.fbResults
	} else {
		results = t.flowScratch.Track(t.prevPyr, nextPyr, t.batch, t.FlowParams)
	}

	// Eq. 3 normalizes by the frame gap because the tracking-frame selector
	// skips frames (j - i may exceed 1).
	gap := next.Index - t.prevIndex
	if gap < 1 {
		gap = 1
	}
	// Shift boxes by the median per-object moving vector. The median makes a
	// single mistracked feature harmless. Each live object's results follow
	// the previous object's in the batch; its surviving points are compacted
	// into its own list in place (the batch holds the originals the
	// displacements need).
	var velocitySum float64
	var velocityN int
	bi := 0
	for oi := range t.objs {
		o := &t.objs[oi]
		if o.lost {
			out = append(out, o.det)
			continue
		}
		t.dxs, t.dys = t.dxs[:0], t.dys[:0]
		kept := o.pts[:0]
		for range o.pts {
			if r := results[bi]; r.OK {
				d := r.Pt.Sub(t.batch[bi])
				t.dxs = append(t.dxs, d.X)
				t.dys = append(t.dys, d.Y)
				kept = append(kept, r.Pt)
				velocitySum += d.Norm()
				velocityN++
			}
			bi++
		}
		if len(kept) == 0 {
			// All features lost: freeze the box; it will be recycled at the
			// next detector calibration.
			o.lost = true
			out = append(out, o.det)
			continue
		}
		move := geom.Point{X: median(t.dxs), Y: median(t.dys)}
		o.det.Box = o.det.Box.Translate(move).Clip(t.bounds)
		o.pts = kept
		out = append(out, o.det)
	}
	var velocity float64
	if velocityN > 0 {
		velocity = velocitySum / float64(velocityN) / float64(gap)
	}
	return out, velocity
}
