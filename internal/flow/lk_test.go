package flow

import (
	"math"
	"testing"

	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/rng"
	"adavp/internal/video"
)

// texturedImage builds an image with smooth random texture, which is ideal
// for optical flow (rich gradients, no repeated structure).
func texturedImage(w, h int, seed uint64) *imgproc.Gray {
	s := rng.New(seed)
	img := imgproc.NewGray(w, h)
	for i := range img.Pix {
		img.Pix[i] = float32(s.Float64())
	}
	// Smooth enough that the coarse pyramid levels still carry gradient
	// signal (real video frames are band-limited by the camera optics), then
	// contrast-stretched back to [0, 1] so gradients stay strong.
	sm := imgproc.NewGray(w, h)
	imgproc.GaussianBlurInto(sm, img, 2.5, new(imgproc.Scratch))
	lo, hi := float32(1), float32(0)
	for _, v := range sm.Pix {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > lo {
		scale := 1 / (hi - lo)
		for i := range sm.Pix {
			sm.Pix[i] = (sm.Pix[i] - lo) * scale
		}
	}
	return sm
}

// translate shifts an image by (dx, dy) with bilinear resampling.
func translate(img *imgproc.Gray, dx, dy float64) *imgproc.Gray {
	out := imgproc.NewGray(img.W, img.H)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			out.Set(x, y, img.Bilinear(float64(x)-dx, float64(y)-dy))
		}
	}
	return out
}

func pyr(img *imgproc.Gray) *imgproc.Pyramid { return imgproc.NewPyramid(img, 3) }

func TestTrackRecoversSmallTranslation(t *testing.T) {
	img := texturedImage(128, 96, 1)
	const dx, dy = 1.6, -0.8
	next := translate(img, dx, dy)
	pts := []geom.Point{{X: 40, Y: 40}, {X: 64, Y: 48}, {X: 90, Y: 60}}
	res := Track(pyr(img), pyr(next), pts, DefaultParams())
	for i, r := range res {
		if !r.OK {
			t.Fatalf("point %d lost", i)
		}
		got := r.Pt.Sub(pts[i])
		if math.Abs(got.X-dx) > 0.15 || math.Abs(got.Y-dy) > 0.15 {
			t.Errorf("point %d: flow = (%.3f, %.3f), want (%.1f, %.1f)", i, got.X, got.Y, dx, dy)
		}
	}
}

func TestTrackRecoversLargeTranslationViaPyramid(t *testing.T) {
	img := texturedImage(160, 120, 2)
	const dx, dy = 13.0, 9.0 // larger than the 10px window radius
	next := translate(img, dx, dy)
	pts := []geom.Point{{X: 60, Y: 50}, {X: 80, Y: 60}}
	res := Track(pyr(img), pyr(next), pts, DefaultParams())
	for i, r := range res {
		if !r.OK {
			t.Fatalf("point %d lost", i)
		}
		got := r.Pt.Sub(pts[i])
		if math.Abs(got.X-dx) > 0.6 || math.Abs(got.Y-dy) > 0.6 {
			t.Errorf("point %d: flow = (%.2f, %.2f), want (%.0f, %.0f)", i, got.X, got.Y, dx, dy)
		}
	}
}

func TestTrackSingleLevelFailsOnLargeMotion(t *testing.T) {
	// Ablation of the pyramid: the same 13px motion that the 3-level tracker
	// recovers must defeat a single-level tracker (displacement >> window).
	img := texturedImage(160, 120, 2)
	next := translate(img, 13, 9)
	pts := []geom.Point{{X: 60, Y: 50}}
	p := DefaultParams()
	p.MaxLevels = 1
	res := Track(pyr(img), pyr(next), pts, p)
	got := res[0].Pt.Sub(pts[0])
	errMag := math.Hypot(got.X-13, got.Y-9)
	if res[0].OK && errMag < 1 {
		t.Errorf("single-level LK recovered 13px motion exactly (err %.2f); pyramid should be required", errMag)
	}
}

func TestTrackZeroMotion(t *testing.T) {
	img := texturedImage(96, 96, 3)
	pts := []geom.Point{{X: 30, Y: 30}, {X: 60, Y: 70}}
	res := Track(pyr(img), pyr(img), pts, DefaultParams())
	for i, r := range res {
		if !r.OK {
			t.Fatalf("point %d lost on identical frames", i)
		}
		if d := r.Pt.Dist(pts[i]); d > 0.05 {
			t.Errorf("point %d drifted %.3f px on identical frames", i, d)
		}
		if r.Residual > 0.01 {
			t.Errorf("point %d residual %.4f on identical frames", i, r.Residual)
		}
	}
}

func TestTrackFlatRegionRejected(t *testing.T) {
	img := imgproc.NewGray(96, 96)
	img.Fill(0.5)
	res := Track(pyr(img), pyr(img), []geom.Point{{X: 48, Y: 48}}, DefaultParams())
	if res[0].OK {
		t.Error("tracking succeeded on a featureless flat region")
	}
}

func TestTrackApertureProblemRejected(t *testing.T) {
	// Vertical stripes: gradient energy only along x. The structure tensor is
	// rank-1, so the tracker must reject the point rather than hallucinate.
	img := imgproc.NewGray(96, 96)
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			img.Set(x, y, float32(math.Sin(float64(x)/3))*0.5+0.5)
		}
	}
	res := Track(pyr(img), pyr(img), []geom.Point{{X: 48, Y: 48}}, DefaultParams())
	if res[0].OK {
		t.Error("tracking succeeded despite the aperture problem")
	}
}

func TestTrackPointLeavingFrame(t *testing.T) {
	img := texturedImage(96, 96, 4)
	next := translate(img, 30, 0)
	// A point near the right border moves out of the frame.
	res := Track(pyr(img), pyr(next), []geom.Point{{X: 90, Y: 48}}, DefaultParams())
	if res[0].OK && res[0].Pt.X <= 95 {
		t.Errorf("point near border: OK=%v Pt=%v; expected lost or out of frame", res[0].OK, res[0].Pt)
	}
}

func TestTrackContentChangeHighResidual(t *testing.T) {
	// Completely different next frame: the point may converge somewhere but
	// the residual must reveal the mismatch.
	a := texturedImage(96, 96, 5)
	b := texturedImage(96, 96, 6)
	p := DefaultParams()
	p.MaxResidual = -1 // disable the auto-reject to observe the raw residual
	res := Track(pyr(a), pyr(b), []geom.Point{{X: 48, Y: 48}}, p)
	// Either the solver diverges and rejects the point, or it converges
	// somewhere with a residual that betrays the mismatch.
	if res[0].OK && res[0].Residual < 0.02 {
		t.Errorf("OK with residual %.4f for unrelated frames", res[0].Residual)
	}
}

func TestTrackManyPointsConsistency(t *testing.T) {
	// All features on a rigidly translating image must report near-identical
	// flow vectors; the spread across points is the tracking noise that
	// AdaVP's per-object median suppresses.
	img := texturedImage(160, 120, 7)
	next := translate(img, 3, 2)
	var pts []geom.Point
	for y := 30; y <= 90; y += 15 {
		for x := 30; x <= 130; x += 20 {
			pts = append(pts, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	res := Track(pyr(img), pyr(next), pts, DefaultParams())
	okCount := 0
	for i, r := range res {
		if !r.OK {
			continue
		}
		okCount++
		d := r.Pt.Sub(pts[i])
		if math.Abs(d.X-3) > 0.3 || math.Abs(d.Y-2) > 0.3 {
			t.Errorf("point %d flow (%.2f, %.2f) deviates from (3, 2)", i, d.X, d.Y)
		}
	}
	if okCount < len(pts)*3/4 {
		t.Errorf("only %d/%d points tracked", okCount, len(pts))
	}
}

func TestTrackEmptyInput(t *testing.T) {
	img := texturedImage(64, 64, 8)
	res := Track(pyr(img), pyr(img), nil, DefaultParams())
	if len(res) != 0 {
		t.Errorf("tracking no points returned %d results", len(res))
	}
}

func TestParamsWithDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	d := DefaultParams()
	if p != d {
		t.Errorf("withDefaults() = %+v, want %+v", p, d)
	}
	// Explicit values survive.
	q := Params{WindowRadius: 5, MaxLevels: 2, MaxIters: 10, Epsilon: 0.1, MinEigThreshold: 1e-3, MaxResidual: 0.5}
	if got := q.withDefaults(); got != q {
		t.Errorf("withDefaults() clobbered explicit values: %+v", got)
	}
}

func BenchmarkTrack50Points(b *testing.B) {
	img := texturedImage(320, 180, 9)
	next := translate(img, 2, 1)
	pp := pyr(img)
	np := pyr(next)
	var pts []geom.Point
	s := rng.New(10)
	for i := 0; i < 50; i++ {
		pts = append(pts, geom.Point{X: s.Range(20, 300), Y: s.Range(20, 160)})
	}
	p := DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Track(pp, np, pts, p)
	}
}

// track704 is the scene-cut kind's rendered 704×396 frames 2 and 3 with the
// 30 features PixelTracker would follow in frame 2's truth boxes — about the
// 30.67 points a pixel_seq step tracks.
func track704() framePair {
	return renderedPairs([]video.Kind{video.KindSceneCut})[0]
}

// trackSink keeps the benchmarked calls' results alive.
var trackSink []Result

// BenchmarkTrack704 tracks track704's points through a reused Scratch;
// BenchmarkTrack704Ref is the same call with trackOneRef as the solver.
func BenchmarkTrack704(b *testing.B) {
	fp := track704()
	var s Scratch
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trackSink = s.Track(fp.prev, fp.next, fp.pts, p)
	}
}

func BenchmarkTrack704Ref(b *testing.B) {
	fp := track704()
	var s Scratch
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trackSink = s.trackRef(fp.prev, fp.next, fp.pts, p)
	}
}
