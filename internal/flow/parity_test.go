package flow

import (
	"fmt"
	"image"
	"math"
	"testing"

	"adavp/internal/features"
	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/par"
	"adavp/internal/rng"
	"adavp/internal/video"
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
		requireSameResults(t, fmt.Sprintf("workers=%d", workers), ref, got)

		// Scratch form, reused across two calls.
		var s Scratch
		for call := 0; call < 2; call++ {
			got = s.Track(prev, next, pts, p)
			requireSameResults(t, fmt.Sprintf("workers=%d", workers), ref, got)
		}
	}
}

// requireSameResults fails unless got is ref bitwise: OK, Pt and Residual of
// every point.
func requireSameResults(t *testing.T, name string, ref, got []Result) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d results vs %d", name, len(got), len(ref))
	}
	for i := range ref {
		if ref[i].OK != got[i].OK ||
			math.Float64bits(ref[i].Pt.X) != math.Float64bits(got[i].Pt.X) ||
			math.Float64bits(ref[i].Pt.Y) != math.Float64bits(got[i].Pt.Y) ||
			math.Float64bits(ref[i].Residual) != math.Float64bits(got[i].Residual) {
			t.Fatalf("%s: point %d: %+v, reference %+v", name, i, got[i], ref[i])
		}
	}
}

// solver is the per-point signature trackOne and trackOneRef share.
type solver func(prev, next *imgproc.Pyramid, gxs, gys []*imgproc.Gray, pt geom.Point, levels int, p Params, tb *tmplBuf) Result

// trackWholeLevels is Scratch.Track with every level differentiated whole —
// the form Track had before it windowed its gradients — and the points solved
// serially by solve; it is the reference the parity tests compare with.
func trackWholeLevels(prev, next *imgproc.Pyramid, pts []geom.Point, p Params, solve solver) []Result {
	gxs, gys := wholeLevelGradients(prev)
	return solveSerially(prev, next, gxs, gys, pts, p, solve)
}

// wholeLevelGradients differentiates every level of pyr whole.
func wholeLevelGradients(pyr *imgproc.Pyramid) (gxs, gys []*imgproc.Gray) {
	var sc imgproc.Scratch
	for _, lvl := range pyr.Levels {
		gx, gy := imgproc.NewGray(lvl.W, lvl.H), imgproc.NewGray(lvl.W, lvl.H)
		imgproc.GradientsInto(gx, gy, lvl, &sc)
		gxs, gys = append(gxs, gx), append(gys, gy)
	}
	return gxs, gys
}

// solveSerially runs solve for every point over the given gradients of prev.
func solveSerially(prev, next *imgproc.Pyramid, gxs, gys []*imgproc.Gray, pts []geom.Point, p Params, solve solver) []Result {
	p = p.withDefaults()
	levels := min(len(prev.Levels), len(next.Levels), p.MaxLevels)
	tb := new(tmplBuf)
	tb.ensure(p.WindowRadius)
	out := make([]Result, len(pts))
	for i, pt := range pts {
		out[i] = solve(prev, next, gxs[:levels], gys[:levels], pt, levels, p, tb)
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
		ref := trackWholeLevels(prev, next, pts, p, trackOne)
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
					requireSameResults(t, fmt.Sprintf("workers=%d", workers), ref, s.Track(prev, next, pts, p))
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

// framePair is one rendered 704×396 frame pair and the points to track.
type framePair struct {
	name       string
	prev, next *imgproc.Pyramid
	gxs, gys   []*imgproc.Gray // prev's levels differentiated whole
	pts        []geom.Point
}

// renderedPairs renders, for each kind, frame 2 and the frames one and three
// after it, with the Shi–Tomasi features PixelTracker would follow inside
// frame 2's truth boxes. The pyramids have four levels so MaxLevels 4 bites.
func renderedPairs(kinds []video.Kind) []framePair {
	fp := features.DefaultParams()
	fp.MaxCorners = 60
	fp.MinDistance = 4
	var out []framePair
	for _, k := range kinds {
		vp := video.ScenarioParams(k)
		vp.W, vp.H = 704, 396
		v := video.Generate(k.String(), vp, 7, 6)
		const i = 2
		f := v.FrameWithPixels(i)
		var masks []geom.Rect
		for _, o := range f.Truth {
			masks = append(masks, o.Box)
		}
		var pts []geom.Point
		for _, ft := range features.Detect(f.Pixels, masks, fp) {
			pts = append(pts, ft.Pt)
		}
		prev := imgproc.NewPyramid(f.Pixels, 4)
		gxs, gys := wholeLevelGradients(prev)
		for _, j := range []int{i + 1, i + 3} {
			next := imgproc.NewPyramid(v.FrameWithPixels(j).Pixels, 4)
			out = append(out, framePair{fmt.Sprintf("%v %d→%d", k, i, j), prev, next, gxs, gys, pts})
		}
	}
	return out
}

// hostilePoints are the coordinates a tap table could get wrong in a w×h
// frame: random ones in and around it, the edges and corners, points outside,
// NaN, ±Inf and 1e300 (whose floor converts to the minimum int on amd64).
func hostilePoints(w, h float64, seed uint64) []geom.Point {
	nan, inf := math.NaN(), math.Inf(1)
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: w - 1, Y: h - 1}, {X: 0.5, Y: h - 1}, {X: w - 1, Y: 0.25},
		{X: 3, Y: h / 2}, {X: w - 4.5, Y: h / 2}, {X: w / 2, Y: 2.75}, {X: w / 2, Y: h - 3},
		{X: -7.5, Y: 40}, {X: w + 30, Y: h + 30}, {X: 100, Y: -60}, {X: -0.5, Y: -0.5},
		{X: nan, Y: 20}, {X: 20, Y: nan}, {X: inf, Y: 10}, {X: 10, Y: -inf}, {X: -inf, Y: inf},
		{X: 1e300, Y: 30}, {X: 30, Y: -1e300}, {X: 1e300, Y: 1e300},
	}
	s := rng.New(seed)
	for i := 0; i < 16; i++ {
		pts = append(pts, geom.Point{X: s.Range(-20, w+20), Y: s.Range(-20, h+20)})
	}
	return pts
}

// requireMatchesReference compares trackOne with trackOneRef on one frame
// pair: the reference solves serially over whole-level gradients; trackOne
// runs once directly on tb and s's windowed gradients, then through s.Track at
// workers 1, 2 and 3. s and tb arrive dirty from every call before.
func requireMatchesReference(t *testing.T, name string, fp framePair, pts []geom.Point, p Params, s *Scratch, tb *tmplBuf) {
	t.Helper()
	prev, next := fp.prev, fp.next
	want := solveSerially(prev, next, fp.gxs, fp.gys, pts, p, trackOneRef)
	q := p.withDefaults()
	levels := s.differentiate(prev, next, pts, q)
	tb.ensure(q.WindowRadius)
	got := make([]Result, len(pts))
	for i, pt := range pts {
		got[i] = trackOne(prev, next, s.gx[:levels], s.gy[:levels], pt, levels, q, tb)
	}
	requireSameResults(t, name+" direct", want, got)
	for _, workers := range []int{1, 2, 3} {
		par.SetWorkers(workers)
		requireSameResults(t, fmt.Sprintf("%s workers %d", name, workers), want, s.Track(prev, next, pts, p))
	}
}

// TestTrackOneMatchesReference asserts the tap-table solver is bitwise the
// per-sample Bilinear one: OK, Pt and Residual of every point, on rendered
// frames of every scenario kind with the features the tracker would follow
// and with hostile coordinates, at the production parameters with and
// without the residual check, then over radii 1…40 and 1, 3 and 4 levels on
// a few kinds. One Scratch and one tmplBuf are reused dirty throughout, so a
// table entry left over from a larger radius or another level would show.
func TestTrackOneMatchesReference(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	var s Scratch
	tb := new(tmplBuf)
	tracked := 0
	pairs := renderedPairs(video.EveryKind())
	for pi, fp := range pairs {
		pts := append(fp.pts[:len(fp.pts):len(fp.pts)], hostilePoints(704, 396, uint64(pi))...)
		tracked += len(fp.pts)
		p := DefaultParams()
		if pi%2 == 1 {
			p.MaxResidual = -1
		}
		requireMatchesReference(t, fmt.Sprintf("%s MaxResidual %v", fp.name, p.MaxResidual), fp, pts, p, &s, tb)
	}
	if tracked < 300 {
		t.Fatalf("only %d detected points over %d pairs: the rendered comparison is thin", tracked, len(pairs))
	}
	// Empty levels sample as zeros in both solvers, and a next frame may be
	// empty where the previous one is not.
	empty := imgproc.NewPyramid(imgproc.NewGray(0, 0), 3)
	textured := imgproc.NewPyramid(texturedImage(64, 48, 5), 3)
	for _, pair := range [][2]*imgproc.Pyramid{{empty, empty}, {textured, empty}} {
		gxs, gys := wholeLevelGradients(pair[0])
		fp := framePair{name: fmt.Sprintf("empty next, prev %dx%d", pair[0].Levels[0].W, pair[0].Levels[0].H), prev: pair[0], next: pair[1], gxs: gxs, gys: gys}
		requireMatchesReference(t, fp.name, fp, hostilePoints(64, 48, 9), DefaultParams(), &s, tb)
	}

	// The radius × level grid on one pair of each of three kinds, the pair
	// alternating with the configuration: fewer points, since a radius-40
	// reference costs 15 times a radius-10 one.
	few := renderedPairs([]video.Kind{video.KindCityStreet, video.KindOcclusionStorm, video.KindSceneCut})
	for _, r := range []int{1, 3, 10, 40} {
		for _, levels := range []int{1, 3, 4} {
			for ki := 0; ki < len(few)/2; ki++ {
				fp := few[2*ki+(r+levels+ki)%2]
				pts := append(fp.pts[:min(len(fp.pts), 8):min(len(fp.pts), 8)], hostilePoints(704, 396, uint64(100+ki))[:20]...)
				p := Params{WindowRadius: r, MaxLevels: levels}
				if (r+levels+ki)%3 == 0 {
					p.MaxResidual = -1
				}
				requireMatchesReference(t, fmt.Sprintf("%s r %d levels %d MaxResidual %v", fp.name, r, levels, p.MaxResidual), fp, pts, p, &s, tb)
			}
		}
	}
}

// FuzzTrackOne compares the tap-table solver with trackOneRef for arbitrary
// point coordinates and parameters on a textured frame pair. The seed corpus
// runs under plain go test.
func FuzzTrackOne(f *testing.F) {
	prev, next := parityFrames(96, 72)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		x, y                float64
		r, levels, iters    uint8
		eps, minEig, maxRes float64
	}{
		{40, 30, 10, 3, 30, 0.01, 1e-4, 0.25},
		{0, 0, 1, 1, 5, 0, 0, -1},
		{95, 71, 3, 4, 12, 1e-3, 1e-6, 0},
		{-7.5, 80, 15, 2, 39, 0.5, 1e-2, 10},
		{nan, 20, 4, 3, 8, nan, nan, nan},
		{20, -inf, 2, 3, 8, inf, 0, inf},
		{1e300, -1e300, 6, 2, 3, 1e-9, 1e-12, -inf},
		{47.999, 36.001, 7, 3, 30, 1e-6, 1e-9, 1e-3},
	} {
		f.Add(c.x, c.y, c.r, c.levels, c.iters, c.eps, c.minEig, c.maxRes)
	}
	f.Fuzz(func(t *testing.T, x, y float64, r, levels, iters uint8, eps, minEig, maxRes float64) {
		p := Params{
			WindowRadius: 1 + int(r%16), MaxLevels: 1 + int(levels%4), MaxIters: 1 + int(iters%40),
			Epsilon: eps, MinEigThreshold: minEig, MaxResidual: maxRes,
		}
		pts := []geom.Point{{X: x, Y: y}}
		var s Scratch
		requireSameResults(t, fmt.Sprintf("%+v at %v", p, pts[0]), trackWholeLevels(prev, next, pts, p, trackOneRef), s.Track(prev, next, pts, p))
	})
}

// TestWindowTapsSampleLikeBilinear checks the tap tables one sample at a
// time: every window sample read through them is bitwise Gray.Bilinear at the
// coordinate the per-sample solver used, base + dx in the template and
// (base + dx) + ν in J. The first centre and shift are a case where
// (base + ν) + dx rounds to a different float32 fraction at dx = dy = 8 —
// about three in ten million random ones do — which the end-to-end test
// cannot be relied on to meet.
func TestWindowTapsSampleLikeBilinear(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct{ c, d geom.Point }{
		{geom.Point{X: 11.493716968715438, Y: 24.432608873026492}, geom.Point{X: -3.4937110810175835, Y: 3.5673911730923145}},
		{geom.Point{X: 7.936638660860367, Y: 30}, geom.Point{X: -1.906470057685981, Y: 0.5}},
		{geom.Point{X: 32, Y: 24}, geom.Point{}},
		{geom.Point{X: 0, Y: 47}, geom.Point{X: -0.25, Y: 0.75}},
		{geom.Point{X: 63.5, Y: -3}, geom.Point{X: 12, Y: -40}},
		{geom.Point{X: -30, Y: 100}, geom.Point{X: 1e-300, Y: -1e-300}},
		{geom.Point{X: nan, Y: 10}, geom.Point{X: 1, Y: nan}},
		{geom.Point{X: inf, Y: -inf}, geom.Point{X: -inf, Y: 2}},
		{geom.Point{X: 1e300, Y: -1e300}, geom.Point{X: 3, Y: 1e300}},
	}
	// A 0/1 checkerboard passes a fraction through the interpolation exactly
	// (0 + f·(1 − 0) = f), so a fraction one float32 step off shows; on a
	// smooth image it would round away.
	checker := imgproc.NewGray(64, 48)
	for i := range checker.Pix {
		checker.Pix[i] = float32((i%64 + i/64) % 2)
	}
	imgs := []*imgproc.Gray{checker, texturedImage(64, 48, 3), imgproc.NewGray(0, 0), imgproc.NewGray(1, 1), imgproc.NewGray(5, 0)}
	imgs[3].Pix[0] = 0.75
	tb := new(tmplBuf)
	for _, img := range imgs {
		pix, w, h := levelPix(img)
		for _, r := range []int{10, 1, 4} {
			tb.ensure(r)
			for ci, c := range cases {
				tb.windowTaps(c.c, w, h)
				for j, ty := range tb.yt {
					for k, tx := range tb.xt {
						want := img.Bilinear(c.c.X+float64(k-r), c.c.Y+float64(j-r))
						if got := bilerp(pix, tx, ty); math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("%dx%d r %d case %d template sample (%d, %d) = %v, Bilinear %v", img.W, img.H, r, ci, k-r, j-r, got, want)
						}
					}
				}
				tb.shiftedTaps(c.c, c.d, w, h)
				for j, ty := range tb.yt {
					for k, tx := range tb.xt {
						want := img.Bilinear((c.c.X+float64(k-r))+c.d.X, (c.c.Y+float64(j-r))+c.d.Y)
						if got := bilerp(pix, tx, ty); math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("%dx%d r %d case %d shifted sample (%d, %d) = %v, Bilinear %v", img.W, img.H, r, ci, k-r, j-r, got, want)
						}
					}
				}
			}
		}
	}
}
