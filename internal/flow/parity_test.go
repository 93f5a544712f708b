package flow

import (
	"fmt"
	"image"
	"math"
	"testing"

	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/par"
)

// parityFrames builds a textured frame pair with a known small shift.
func parityFrames(w, h int) (*imgproc.Pyramid, *imgproc.Pyramid) {
	a := imgproc.NewGray(w, h)
	b := imgproc.NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.5 + 0.3*math.Sin(float64(x)*0.5)*math.Cos(float64(y)*0.4)
			a.Pix[y*w+x] = float32(v)
			v2 := 0.5 + 0.3*math.Sin((float64(x)-1.5)*0.5)*math.Cos((float64(y)-0.75)*0.4)
			b.Pix[y*w+x] = float32(v2)
		}
	}
	return imgproc.NewPyramid(a, 3), imgproc.NewPyramid(b, 3)
}

// TestTrackParityAcrossWorkerCounts asserts the per-point fan-out returns
// bitwise-identical Results at every worker count, and that the
// scratch-reusing form matches the allocating wrapper call for call.
func TestTrackParityAcrossWorkerCounts(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	prev, next := parityFrames(96, 72)
	var pts []geom.Point
	for y := 12.0; y < 60; y += 7.3 {
		for x := 12.0; x < 84; x += 6.1 {
			pts = append(pts, geom.Point{X: x, Y: y})
		}
	}
	p := DefaultParams()
	par.SetWorkers(1)
	ref := Track(prev, next, pts, p)
	for _, workers := range []int{2, 3, 4, 8} {
		par.SetWorkers(workers)
		got := Track(prev, next, pts, p)
		requireSameResults(t, workers, ref, got)

		// Scratch form, reused across two calls.
		var s Scratch
		for call := 0; call < 2; call++ {
			got = s.Track(prev, next, pts, p)
			requireSameResults(t, workers, ref, got)
		}
	}
}

func requireSameResults(t *testing.T, workers int, ref, got []Result) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("workers=%d: %d results vs %d", workers, len(got), len(ref))
	}
	for i := range ref {
		if ref[i].OK != got[i].OK ||
			math.Float64bits(ref[i].Pt.X) != math.Float64bits(got[i].Pt.X) ||
			math.Float64bits(ref[i].Pt.Y) != math.Float64bits(got[i].Pt.Y) ||
			math.Float64bits(ref[i].Residual) != math.Float64bits(got[i].Residual) {
			t.Fatalf("workers=%d point %d: %+v vs %+v", workers, i, got[i], ref[i])
		}
	}
}

// TestTrackFBParityAcrossWorkerCounts covers the forward-backward path.
func TestTrackFBParityAcrossWorkerCounts(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	prev, next := parityFrames(96, 72)
	pts := []geom.Point{{X: 20, Y: 20}, {X: 48, Y: 36}, {X: 70, Y: 50}, {X: 30, Y: 55}}
	p := DefaultParams()
	par.SetWorkers(1)
	ref := TrackFB(prev, next, pts, p, 0)
	for _, workers := range []int{2, 4} {
		par.SetWorkers(workers)
		got := TrackFB(prev, next, pts, p, 0)
		for i := range ref {
			if ref[i].OK != got[i].OK ||
				math.Float64bits(ref[i].FBError) != math.Float64bits(got[i].FBError) ||
				math.Float64bits(ref[i].Pt.X) != math.Float64bits(got[i].Pt.X) ||
				math.Float64bits(ref[i].Pt.Y) != math.Float64bits(got[i].Pt.Y) {
				t.Fatalf("workers=%d point %d: %+v vs %+v", workers, i, got[i], ref[i])
			}
		}
	}
}

// trackWholeLevels is Scratch.Track with every level differentiated whole:
// the form Track had before it windowed its gradients, kept as the reference.
func trackWholeLevels(prev, next *imgproc.Pyramid, pts []geom.Point, p Params) []Result {
	p = p.withDefaults()
	levels := min(len(prev.Levels), len(next.Levels), p.MaxLevels)
	var sc imgproc.Scratch
	gxs := make([]*imgproc.Gray, levels)
	gys := make([]*imgproc.Gray, levels)
	for l := range gxs {
		lvl := prev.Levels[l]
		gxs[l], gys[l] = imgproc.NewGray(lvl.W, lvl.H), imgproc.NewGray(lvl.W, lvl.H)
		imgproc.GradientsInto(gxs[l], gys[l], lvl, &sc)
	}
	tb := new(tmplBuf)
	tb.ensure(p.WindowRadius)
	out := make([]Result, len(pts))
	for i, pt := range pts {
		out[i] = trackOne(prev, next, gxs, gys, pt, levels, p, tb)
	}
	return out
}

// TestTrackWindowedGradientsMatchWholeLevel asserts that differentiating only
// the rectangles the template windows read changes no result: the gradients
// inside them are the whole-level pass's, clamped borders included, and
// nothing outside them is ever sampled. The scratch arrives dirty from a
// Track over other frames, so a window computed too small reads stale values.
func TestTrackWindowedGradientsMatchWholeLevel(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	const w, h = 320, 180
	prev, next := parityFrames(w, h)
	p := DefaultParams()
	r := float64(p.WindowRadius)
	cases := map[string][]geom.Point{
		"interior": {{X: 60.3, Y: 50.7}, {X: 250, Y: 120}, {X: 160.5, Y: 90.25}},
		"edges": {
			{X: r - 3, Y: 90}, {X: w - 1 - (r - 3), Y: 90}, {X: 160, Y: r - 3}, {X: 160, Y: h - 1 - (r - 3)},
			{X: 0, Y: 0}, {X: w - 1, Y: h - 1}, {X: 0.4, Y: h - 1.4}, {X: w - 1, Y: 0},
		},
		"outside":   {{X: -7.5, Y: 40}, {X: w + 30, Y: h + 30}, {X: 100, Y: -60}, {X: math.NaN(), Y: 20}},
		"clustered": nil,
	}
	for y := 0.0; y < 5; y++ {
		for x := 0.0; x < 5; x++ {
			cases["clustered"] = append(cases["clustered"],
				geom.Point{X: 80 + 3.7*x, Y: 60 + 4.1*y}, geom.Point{X: 100 + 3.7*x, Y: 75 + 4.1*y})
		}
	}
	other, _ := parityFrames(w+40, h+20)
	for name, pts := range cases {
		ref := trackWholeLevels(prev, next, pts, p)
		var probe Scratch
		if probe.windowRects(pts, 1, p.WindowRadius, w, h); len(probe.rects) == 1 && probe.rects[0] == image.Rect(0, 0, w, h) {
			t.Fatalf("%s: level 0 fell back to the whole image, the case exercises nothing", name)
		}
		for _, workers := range []int{1, 3} {
			par.SetWorkers(workers)
			var s Scratch
			s.Track(other, other, []geom.Point{{X: 30, Y: 30}, {X: 300, Y: 150}}, p)
			for call := 0; call < 2; call++ {
				t.Run(fmt.Sprintf("%s/w%d/call%d", name, workers, call), func(t *testing.T) {
					requireSameResults(t, workers, ref, s.Track(prev, next, pts, p))
				})
			}
		}
	}
}

// TestWindowRectsFallsBackToWholeLevel pins the coverage rule: windows that
// add up to half a level are not worth the bookkeeping.
func TestWindowRectsFallsBackToWholeLevel(t *testing.T) {
	pts := []geom.Point{{X: 10, Y: 10}, {X: 50, Y: 10}, {X: 10, Y: 36}, {X: 50, Y: 36}}
	var s Scratch
	if s.windowRects(pts, 1, 10, 64, 48); len(s.rects) != 1 || s.rects[0] != image.Rect(0, 0, 64, 48) {
		t.Fatalf("windowRects = %v, want the whole 64x48 level", s.rects)
	}
	if s.windowRects(pts[:1], 1, 10, 64, 48); len(s.rects) != 1 || s.rects[0] != image.Rect(0, 0, 22, 22) {
		t.Fatalf("one window = %v, want (0,0)-(22,22)", s.rects)
	}
}
