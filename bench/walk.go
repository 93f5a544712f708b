package main

import (
	"math"
	"time"

	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/features"
	"adavp/internal/flow"
	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/metrics"
	"adavp/internal/overlay"
	"adavp/internal/par"
	"adavp/internal/rt"
	"adavp/internal/track"
	"adavp/internal/video"
)

// Span names of the pixel layer walk. A frame span covers exactly the calls
// rt.RunPipelined makes for a frame inside its Elapsed; overlay and F1 are
// the pass span's children, because RunPipelined draws nothing and scores
// after it stops its clock.
const (
	spanPass    = "pass"
	spanFrame   = "frame"
	spanRender  = "video.render"
	spanPyramid = "imgproc.pyramid"
	spanPrepare = "detect.prepare"
	spanBlob    = "detect.blob"
	spanInit    = "track.init"
	spanStep    = "track.step"
	spanOverlay = "overlay.draw"
	spanF1      = "metrics.f1"
)

// walk is one bench-owned pass over the pixel video: the public functions of
// each layer called in rt.RunPipelined's depth-1 order, a span around each.
type walk struct {
	rec     *recorder
	res     *rt.PipelineResult // outputs and F1, for the digest
	boxes   []float64          // detections per calibration frame
	objects []float64          // tracked boxes per tracked frame
}

// pixelWalk walks v the way RunPipelined at depth 1 would under cfg. The
// emulated GPU sleep is left out: at pixel_seq's time scale it rounds to
// zero.
func pixelWalk(v *video.Video, cfg rt.PipelineConfig) *walk {
	n := v.NumFrames()
	w := &walk{
		rec: newRecorder(8 * n),
		res: &rt.PipelineResult{Outputs: make([]core.FrameOutput, n), FrameF1: make([]float64, n)},
	}
	rec := w.rec
	blob := detect.NewBlobDetector()
	tr := track.NewPixelTracker()
	style := overlay.DefaultStyle()
	var scratch imgproc.Scratch
	detIn := &imgproc.Gray{}
	pyr := &imgproc.Pyramid{}
	setting := cfg.Setting
	velSum, velN := 0.0, 0

	pass := rec.begin(spanPass, noParent)
	for i := 0; i < n; i++ {
		fs := rec.begin(spanFrame, pass)
		s := rec.begin(spanRender, fs)
		f := v.FrameWithPixels(i)
		rec.end(s)
		s = rec.begin(spanPyramid, fs)
		pyr.Rebuild(f.Pixels, tr.PyramidLevels, &scratch)
		rec.end(s)

		var out core.FrameOutput
		var released *imgproc.Pyramid
		if i%cfg.DetectEvery == 0 {
			if cfg.Adaptation != nil && i > 0 {
				vel := math.NaN()
				if velN > 0 {
					vel = velSum / float64(velN)
				}
				setting = cfg.Adaptation.Next(setting, vel)
				velSum, velN = 0, 0
			}
			s = rec.begin(spanPrepare, fs)
			var prepared *imgproc.Gray
			if blob.PrepareInput(f, setting, detIn) {
				prepared = detIn
			}
			rec.end(s)
			s = rec.begin(spanBlob, fs)
			dets := blob.DetectPrepared(f, setting, prepared)
			rec.end(s)
			dets = detect.Sanitize(dets)
			s = rec.begin(spanInit, fs)
			_, released = tr.InitWithPyramid(f, dets, pyr)
			rec.end(s)
			out = core.FrameOutput{FrameIndex: i, Source: core.SourceDetector, Setting: setting, Detections: dets}
			w.boxes = append(w.boxes, float64(len(dets)))
		} else {
			s = rec.begin(spanStep, fs)
			dets, vel, rel := tr.StepWithPyramid(f, pyr)
			rec.end(s)
			released = rel
			if track.ValidVelocity(vel) {
				velSum += vel
				velN++
			}
			dets = detect.Sanitize(dets)
			out = core.FrameOutput{FrameIndex: i, Source: core.SourceTracker, Setting: setting, Detections: dets}
			w.objects = append(w.objects, float64(len(dets)))
		}
		// One pyramid circulates; the first init keeps it and trades nothing
		// back, and rebuilding what the tracker holds would corrupt its
		// reference frame.
		if released != nil {
			pyr = released
		} else {
			pyr = &imgproc.Pyramid{}
		}
		w.res.Outputs[i] = out
		rec.end(fs)

		s = rec.begin(spanOverlay, pass)
		_ = overlay.Draw(f.Pixels, out.Detections, style)
		rec.end(s)
		s = rec.begin(spanF1, pass)
		w.res.FrameF1[i] = metrics.FrameF1(out.Detections, v.Truth(i), metrics.DefaultIoU)
		rec.end(s)
	}
	rec.end(pass)
	return w
}

// frameTotals sums the walk's frame spans and their self time.
func (w *walk) frameTotals() (frames, self time.Duration) {
	selfs := selfTimes(w.rec.spans)
	for i, s := range w.rec.spans {
		if s.name == spanFrame {
			frames += s.dur()
			self += selfs[i]
		}
	}
	return frames, self
}

// kernelTimes are the isolated kernel timings, in ms unless noted.
type kernelTimes struct {
	blur, gradients, resize, integral []float64
	featDetect, flowTrack             []float64
	featPoints, flowPoints            []float64
	flowAttempted, flowFound          int
	blurSpeedup, pyramidSpeedup       float64
}

// timeIt runs fn iters times and appends each run's wall ms to dst.
func timeIt(dst *[]float64, iters int, fn func()) {
	for i := 0; i < iters; i++ {
		start := time.Now()
		fn()
		*dst = append(*dst, ms(time.Since(start)))
	}
}

// pixelKernels times the kernels under the walk's calls in isolation, on
// frames of the same video (every DetectEvery-th frame and its successor).
func pixelKernels(v *video.Video, cfg rt.PipelineConfig, sc scale) kernelTimes {
	var k kernelTimes
	var scratch imgproc.Scratch
	tr := track.NewPixelTracker() // for the tracker's own parameters
	var fscratch flow.Scratch
	iters := sc.kernelIters
	procs := par.Workers()
	var blur1, blurN, pyr1, pyrN []float64
	for i := 0; i+1 < v.NumFrames(); i += cfg.DetectEvery {
		f, next := v.FrameWithPixels(i), v.FrameWithPixels(i+1)
		img := f.Pixels
		dst := imgproc.NewGray(img.W, img.H)
		gx, gy := imgproc.NewGray(img.W, img.H), imgproc.NewGray(img.W, img.H)
		small := imgproc.NewGray(img.W*startSetting.InputSize()/704, img.H*startSetting.InputSize()/704)
		integral := &imgproc.Integral{}
		pyrA, pyrB := &imgproc.Pyramid{}, &imgproc.Pyramid{}

		timeIt(&k.blur, iters, func() { imgproc.GaussianBlurInto(dst, img, 1.5, &scratch) })
		timeIt(&k.gradients, iters, func() { imgproc.GradientsInto(gx, gy, img, &scratch) })
		timeIt(&k.resize, iters, func() { img.ResizeInto(small) })
		timeIt(&k.integral, iters, func() { integral.Rebuild(img) })

		masks := make([]geom.Rect, 0, len(f.Truth))
		for _, o := range f.Truth {
			masks = append(masks, o.Box)
		}
		var feats []features.Feature
		timeIt(&k.featDetect, iters, func() { feats = features.Detect(img, masks, tr.FeatureParams) })
		k.featPoints = append(k.featPoints, float64(len(feats)))

		pts := make([]geom.Point, len(feats))
		for j, ft := range feats {
			pts[j] = ft.Pt
		}
		pyrA.Rebuild(img, tr.PyramidLevels, &scratch)
		pyrB.Rebuild(next.Pixels, tr.PyramidLevels, &scratch)
		var results []flow.Result
		timeIt(&k.flowTrack, iters, func() { results = fscratch.Track(pyrA, pyrB, pts, tr.FlowParams) })
		k.flowPoints = append(k.flowPoints, float64(len(pts)))
		k.flowAttempted += len(results)
		for _, r := range results {
			if r.OK {
				k.flowFound++
			}
		}

		// Worker scaling, one worker against the configured count (never
		// above GOMAXPROCS: clampWorkers saw to that).
		par.SetWorkers(1)
		timeIt(&blur1, iters, func() { imgproc.GaussianBlurInto(dst, img, 1.5, &scratch) })
		timeIt(&pyr1, iters, func() { pyrA.Rebuild(img, tr.PyramidLevels, &scratch) })
		par.SetWorkers(procs)
		timeIt(&blurN, iters, func() { imgproc.GaussianBlurInto(dst, img, 1.5, &scratch) })
		timeIt(&pyrN, iters, func() { pyrA.Rebuild(img, tr.PyramidLevels, &scratch) })
	}
	k.blurSpeedup = ratio(newDist(blur1).median(), newDist(blurN).median())
	k.pyramidSpeedup = ratio(newDist(pyr1).median(), newDist(pyrN).median())
	return k
}

// ratio is a/b, or 0 when b is.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
