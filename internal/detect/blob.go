package detect

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"adavp/internal/core"
	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/par"
	"adavp/internal/video"
)

// BlobDetector is a real pixel-level detector over rendered frames. It
// resizes the frame according to the model setting, segments the bright
// intensity band that objects are rendered into, and classifies each blob
// from its shape statistics (fill fraction and aspect ratio).
//
// Resolution convention: the renderer's native frame stands in for the
// paper's full-resolution 1280×720 camera frame, and Setting704 is treated
// as "full resolution" (the paper uses YOLOv3-704 as its ground-truth
// reference). A setting with input size S therefore processes the frame
// scaled by S/704 — e.g. Setting320 sees the frame at 45% linear resolution,
// where small objects genuinely dissolve. The accuracy/latency tradeoff of
// Fig. 1 then *emerges* from computation instead of being programmed in.
type BlobDetector struct {
	// Threshold separates object pixels from background. The renderer keeps
	// backgrounds below 0.40 and object cores above 0.45.
	Threshold float32
	// MinArea discards components smaller than this many pixels (in the
	// resized image), modelling the network's minimum detectable size.
	MinArea int
}

// NewBlobDetector returns a detector tuned to the internal renderer's
// intensity bands.
func NewBlobDetector() *BlobDetector {
	return &BlobDetector{Threshold: 0.44, MinArea: 14}
}

// referenceInput is the setting treated as full resolution.
const referenceInput = 704.0

// Detect implements Detector. Frames without pixels yield no detections.
func (d *BlobDetector) Detect(f core.Frame, s core.Setting) []core.Detection {
	return d.DetectCtx(context.Background(), f, s)
}

// blobDrops counts blobScratch instances dropped (not returned to the pool)
// because their Detect call was abandoned by the watchdog mid-flight; the
// -race regression test reads it.
var blobDrops atomic.Int64

// DetectCtx implements ContextDetector. ctx carries the supervision layer's
// abandonment signal; the detection itself never blocks on it.
func (d *BlobDetector) DetectCtx(ctx context.Context, f core.Frame, s core.Setting) []core.Detection {
	return d.detect(ctx, f, s, nil)
}

// detect is the one body behind DetectCtx and DetectPrepared. prepared, when
// it has the setting's input dimensions, replaces the inline resize.
func (d *BlobDetector) detect(ctx context.Context, f core.Frame, s core.Setting, prepared *imgproc.Gray) []core.Detection {
	w, h, ok := d.inputDims(f, s)
	if !ok {
		return nil
	}
	img := f.Pixels
	// Per-call scratch from a pool rather than a detector field: under the
	// supervision layer a watchdog-abandoned Detect call may still be
	// running when its retry starts, so the detector must tolerate
	// concurrent calls on itself.
	bs := blobPool.Get().(*blobScratch) // Put back below, or dropped if the watchdog abandoned the call
	small := img
	var resized *imgproc.Gray
	if w != img.W || h != img.H {
		if prepared != nil && prepared.W == w && prepared.H == h {
			small = prepared
		} else {
			resized = bs.img.Take(w, h)
			img.ResizeInto(resized)
			small = resized
		}
	}
	out := d.detectOn(small, img, bs)
	// comps alias bs.comps, so the scratch stays ours until this point.
	if ctx.Err() != nil {
		// The watchdog abandoned this call: the supervised retry may already
		// hold a scratch of its own, and Put-ting ours back would let a
		// future Get hand the same buffers to two live calls the moment this
		// goroutine resumes between its last use and the Put. Drop it — the
		// pool refills on demand.
		blobDrops.Add(1)
		return out
	}
	bs.img.Put(resized)
	blobPool.Put(bs)
	return out
}

// inputDims returns the detector-input dimensions for a frame at a setting;
// ok is false when the frame has no pixels or the scaled input is degenerate.
func (d *BlobDetector) inputDims(f core.Frame, s core.Setting) (w, h int, ok bool) {
	if f.Pixels == nil || f.Pixels.W == 0 || f.Pixels.H == 0 {
		return 0, 0, false
	}
	scale := float64(s.InputSize()) / referenceInput
	if scale <= 0 {
		return 0, 0, false
	}
	if scale > 1 {
		scale = 1
	}
	w = int(math.Round(float64(f.Pixels.W) * scale))
	h = int(math.Round(float64(f.Pixels.H) * scale))
	if w < 4 || h < 4 {
		return 0, 0, false
	}
	return w, h, true
}

// PrepareInput renders the setting-scaled detector input for a frame into
// dst, growing dst's buffer as needed. It returns false — leaving dst
// untouched — when the setting reads the frame at native resolution (no
// resize to do) or the frame cannot be detected on. The raster is only valid
// for the (frame, setting) pair it was built for. bench/'s layer walk is its
// only non-test caller: it stays because the walk times the resize
// (detect.prepare_ms) apart from the blob pass (detect.blob_ms).
func (d *BlobDetector) PrepareInput(f core.Frame, s core.Setting, dst *imgproc.Gray) bool {
	w, h, ok := d.inputDims(f, s)
	if !ok || (w == f.Pixels.W && h == f.Pixels.H) {
		return false
	}
	if cap(dst.Pix) < w*h {
		dst.Pix = make([]float32, w*h)
	}
	dst.Pix = dst.Pix[:w*h]
	dst.W, dst.H = w, h
	f.Pixels.ResizeInto(dst)
	return true
}

// DetectPrepared is Detect with the setting-scaled input already rendered by
// PrepareInput: bitwise-identical detections. A nil, mis-sized or stale
// prepared raster (built for a different setting) falls back to resizing
// inline, so the result never depends on whether the raster was usable. Like
// PrepareInput, it serves bench/'s layer walk, which splits
// detect.prepare_ms from detect.blob_ms.
func (d *BlobDetector) DetectPrepared(f core.Frame, s core.Setting, prepared *imgproc.Gray) []core.Detection {
	// DetectPrepared calls are never watchdog-abandoned, so there is no
	// abandonment signal to carry.
	return d.detect(context.Background(), f, s, prepared)
}

// detectOn runs segmentation and classification over the (already resized)
// detector input. native is the full-resolution frame the boxes are mapped
// back into.
func (d *BlobDetector) detectOn(small, native *imgproc.Gray, bs *blobScratch) []core.Detection {
	comps := d.components(small, bs)
	back := float64(native.W) / float64(small.W)
	out := make([]core.Detection, 0, len(comps))
	for _, c := range comps {
		det, ok := d.classify(c, back)
		if !ok {
			continue
		}
		det.Box = det.Box.Clip(geom.Rect{W: float64(native.W), H: float64(native.H)})
		if det.Box.Empty() {
			continue
		}
		out = append(out, det)
	}
	// Strongest (largest) first, matching the score ordering Match expects.
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

// component is a connected bright region in the resized frame.
type component struct {
	area                   int
	minX, minY, maxX, maxY int
	lumaSum                float64
}

// blobScratch is the reusable working memory of one Detect call: the
// resized frame, the threshold/visited mask, the flood-fill stack and the
// component list.
type blobScratch struct {
	img   imgproc.Scratch
	mask  []uint8
	stack []int32
	comps []component
}

var blobPool = sync.Pool{New: func() any { return new(blobScratch) }}

// Mask states of the threshold/label pass.
const (
	maskDark    = 0 // below threshold
	maskBright  = 1 // at or above threshold, not yet labeled
	maskVisited = 2 // claimed by a component
)

// components runs the threshold pass in parallel row bands, then a
// sequential 4-connected flood fill over the mask. The labeling scan order
// is the raster order of the scalar implementation, so the component list —
// and with it every detection — is identical at any worker count. The
// returned slice aliases bs.comps; it is valid until the scratch is reused.
//
//adavp:hotpath
func (d *BlobDetector) components(img *imgproc.Gray, bs *blobScratch) []component {
	w, h := img.W, img.H
	if cap(bs.mask) < w*h {
		bs.mask = make([]uint8, w*h)
	}
	mask := bs.mask[:w*h]
	thr := d.Threshold
	par.Rows(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			row := img.Row(y)
			mrow := mask[y*w : (y+1)*w]
			for x, v := range row {
				if v >= thr {
					mrow[x] = maskBright
				} else {
					mrow[x] = maskDark
				}
			}
		}
	})
	out := bs.comps[:0]
	stack := bs.stack
	for y0 := 0; y0 < h; y0++ {
		for x0 := 0; x0 < w; x0++ {
			idx0 := y0*w + x0
			if mask[idx0] != maskBright {
				continue
			}
			comp := component{minX: x0, minY: y0, maxX: x0, maxY: y0}
			stack = append(stack[:0], int32(idx0))
			mask[idx0] = maskVisited
			for len(stack) > 0 {
				idx := int(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
				x, y := idx%w, idx/w
				comp.area++
				comp.lumaSum += float64(img.Pix[idx])
				if x < comp.minX {
					comp.minX = x
				}
				if x > comp.maxX {
					comp.maxX = x
				}
				if y < comp.minY {
					comp.minY = y
				}
				if y > comp.maxY {
					comp.maxY = y
				}
				if x > 0 && mask[idx-1] == maskBright {
					mask[idx-1] = maskVisited
					stack = append(stack, int32(idx-1))
				}
				if x+1 < w && mask[idx+1] == maskBright {
					mask[idx+1] = maskVisited
					stack = append(stack, int32(idx+1))
				}
				if y > 0 && mask[idx-w] == maskBright {
					mask[idx-w] = maskVisited
					stack = append(stack, int32(idx-w))
				}
				if y+1 < h && mask[idx+w] == maskBright {
					mask[idx+w] = maskVisited
					stack = append(stack, int32(idx+w))
				}
			}
			if comp.area >= d.MinArea {
				out = append(out, comp)
			}
		}
	}
	bs.stack = stack
	bs.comps = out
	return out
}

// shapeCandidate links a class to its rendered geometry and its appearance
// band (surface brightness).
type shapeCandidate struct {
	class      core.Class
	aspect     float64
	elliptical bool
	luma       float64
}

// candidates is the inverse of the renderer's shape and appearance tables:
// the detector's "training". Classification measures the blob's shape family
// (ellipse vs rectangle, from its fill fraction) and its mean surface
// brightness, then picks the nearest class band. At small input sizes,
// resampling blends object pixels with the dark background, biasing the
// luma estimate and producing neighbor-band confusions — the Fig. 5
// behaviour (e.g. cars labelled as trucks) arising from real computation.
var candidates = buildCandidates()

func buildCandidates() []shapeCandidate {
	shapes := map[core.Class]struct {
		aspect     float64
		elliptical bool
	}{
		core.ClassCar:       {0.55, false},
		core.ClassTruck:     {0.7, false},
		core.ClassBus:       {0.7, false},
		core.ClassMotorbike: {0.9, false},
		core.ClassBicycle:   {0.9, false},
		core.ClassTrain:     {0.35, false},
		core.ClassAirplane:  {0.35, false},
		core.ClassBoat:      {0.5, false},
		core.ClassPerson:    {2.4, true},
		core.ClassSkater:    {2.4, true},
		core.ClassDog:       {0.8, true},
		core.ClassSheep:     {0.8, true},
		core.ClassHorse:     {0.9, true},
		core.ClassBird:      {0.6, true},
	}
	out := make([]shapeCandidate, 0, len(shapes))
	for c := core.ClassCar; c.Valid(); c++ {
		s := shapes[c]
		out = append(out, shapeCandidate{class: c, aspect: s.aspect, elliptical: s.elliptical, luma: video.ClassLuma(c)})
	}
	return out
}

// Rendered bright cores cover 86% of a rectangular object's extent and
// sqrt(0.78)≈88.3% of an elliptical one (the rest is the dark rim), so the
// measured blob must be expanded to recover the true box.
const (
	rectCoreFrac    = 0.86
	ellipseCoreFrac = 0.883
)

// classify converts a component to a detection in native frame coordinates.
func (d *BlobDetector) classify(c component, back float64) (core.Detection, bool) {
	bw := float64(c.maxX-c.minX) + 1
	bh := float64(c.maxY-c.minY) + 1
	if bw <= 0 || bh <= 0 {
		return core.Detection{}, false
	}
	fill := float64(c.area) / (bw * bh)
	// Ellipses fill ≈ π/4 ≈ 0.79 of their bbox; rectangles ≈ 1. The cutoff
	// sits nearer the ellipse side because partial occlusion lowers a
	// rectangle's fill more often than it raises an ellipse's.
	elliptical := fill < 0.85
	aspect := bh / bw
	luma := c.lumaSum / float64(c.area)
	best := -1
	bestDist := math.Inf(1)
	for i, cand := range candidates {
		if cand.elliptical != elliptical {
			continue
		}
		// Geometry (aspect ratio) narrows the candidates; appearance (luma
		// band, ~0.025 apart) disambiguates the rest.
		dist := 10*math.Abs(luma-cand.luma) + 2.0*math.Abs(math.Log(aspect)-math.Log(cand.aspect))
		if dist < bestDist {
			bestDist = dist
			best = i
		}
	}
	if best < 0 {
		return core.Detection{}, false
	}
	coreFrac := rectCoreFrac
	if elliptical {
		coreFrac = ellipseCoreFrac
	}
	// Undo the rim shrinkage and the resolution scaling.
	fullW := bw / coreFrac * back
	fullH := bh / coreFrac * back
	cx := (float64(c.minX+c.maxX)/2 + 0.5) * back
	cy := (float64(c.minY+c.maxY)/2 + 0.5) * back
	// Confidence grows with blob size (bigger blobs are better resolved).
	score := 1 - math.Exp(-float64(c.area)/60)
	return core.Detection{
		Class: candidates[best].class,
		Box:   geom.RectFromCenter(geom.Point{X: cx, Y: cy}, fullW, fullH),
		Score: score,
	}, true
}
