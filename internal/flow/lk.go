// Package flow implements pyramidal Lucas–Kanade optical flow (Lucas &
// Kanade, IJCAI 1981; pyramidal formulation after Bouguet), the tracking
// method AdaVP uses to follow good features between DNN-detected frames.
//
// For each feature, the displacement d minimizing the window SSD
//
//	Σ_w (I(x) − J(x + d))²
//
// is found by Newton iterations on the linearized system G·ν = b, where G is
// the spatial gradient (structure tensor) matrix of the template window and
// b accumulates gradient-weighted residuals. A coarse-to-fine pyramid
// extends the usable displacement range far beyond the window radius, which
// is what keeps tracking viable on fast-changing videos (the paper's
// Observation 3 regime).
package flow

import (
	"image"
	"math"
	"sync"

	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/par"
)

// Params configures the tracker. Zero-value fields are replaced by the
// corresponding DefaultParams values.
type Params struct {
	// WindowRadius r gives a (2r+1)×(2r+1) integration window. OpenCV's
	// calcOpticalFlowPyrLK default winSize 21×21 corresponds to r = 10.
	WindowRadius int
	// MaxLevels caps the number of pyramid levels used (>= 1).
	MaxLevels int
	// MaxIters bounds the Newton iterations per level.
	MaxIters int
	// Epsilon stops iterating once the update step is shorter than this.
	Epsilon float64
	// MinEigThreshold rejects points whose normalized structure tensor is
	// ill-conditioned (untrackable: flat or purely 1-D texture).
	MinEigThreshold float64
	// MaxResidual marks a point lost when the final mean absolute window
	// residual exceeds it. Negative disables the check; zero selects the
	// default.
	MaxResidual float64
}

// DefaultParams mirrors the OpenCV defaults used by the paper's artifact.
func DefaultParams() Params {
	return Params{
		WindowRadius:    10,
		MaxLevels:       3,
		MaxIters:        30,
		Epsilon:         0.01,
		MinEigThreshold: 1e-4,
		MaxResidual:     0.25,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.WindowRadius <= 0 {
		p.WindowRadius = d.WindowRadius
	}
	if p.MaxLevels <= 0 {
		p.MaxLevels = d.MaxLevels
	}
	if p.MaxIters <= 0 {
		p.MaxIters = d.MaxIters
	}
	if p.Epsilon <= 0 {
		p.Epsilon = d.Epsilon
	}
	if p.MinEigThreshold <= 0 {
		p.MinEigThreshold = d.MinEigThreshold
	}
	if p.MaxResidual == 0 {
		p.MaxResidual = d.MaxResidual
	}
	return p
}

// Result is the tracked position of one input point.
type Result struct {
	// Pt is the estimated position in the next frame.
	Pt geom.Point
	// OK reports whether tracking succeeded. When false, Pt is the best
	// guess and should not be trusted.
	OK bool
	// Residual is the final mean absolute intensity difference over the
	// window; small values mean a confident match.
	Residual float64
}

// Scratch holds the reusable buffers of the flow solver: per-level gradient
// images of the previous frame (valid only inside the windows the last Track
// differentiated), the band-local rows of the Scharr pass that writes them
// and the window list. A Scratch belongs to one pipeline stage and is not
// safe for concurrent use; the per-point template windows, whose lifetime
// spans only one banded worker, come from a sync.Pool instead.
type Scratch struct {
	gx, gy []*imgproc.Gray
	img    imgproc.Scratch
	rects  []image.Rectangle
	band   trackBand // Track's fan-out
}

// tmplBuf is one worker's template window (gradients and intensities of the
// patch being tracked) and the tap tables the window is sampled through.
type tmplBuf struct {
	x, y, i []float64
	// xt and yt are the column and row taps of the window being sampled,
	// 2r+1 each: the template's, then J's for each Newton iteration.
	xt, yt []tap
}

// tap is one axis of a bilinear sample: the lower and upper pixel index,
// clamped to the level the way Gray.At clamps (row taps pre-multiplied by the
// width), and the fraction between them.
type tap struct {
	lo, hi int
	f      float32
}

var tmplPool = sync.Pool{New: func() any { return new(tmplBuf) }}

// ensure resizes the template buffers and tap tables for window radius r.
//
//adavp:hotpath
func (t *tmplBuf) ensure(r int) {
	m := 2*r + 1
	t.x, t.y, t.i = grown(t.x, m*m), grown(t.y, m*m), grown(t.i, m*m)
	t.xt, t.yt = grown(t.xt, m), grown(t.yt, m)
}

// grown returns s with length n and undefined contents, reallocating only
// when its capacity is short. Not inlined, so that escape analysis reports the
// allocation here once instead of in every hot function that calls it.
//
//go:noinline
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Track estimates, for every point pts[i] in the previous frame, its position
// in the next frame. The two pyramids must be built from same-sized images.
// It is a convenience wrapper over Scratch.Track with throwaway buffers.
func Track(prev, next *imgproc.Pyramid, pts []geom.Point, p Params) []Result {
	var s Scratch
	return s.Track(prev, next, pts, p)
}

// Track is the allocation-reusing form of the package-level Track: gradient
// buffers persist in s across calls, and the points fan out over the worker
// pool in contiguous bands. Each point's solve is independent and runs the
// identical scalar code at any worker count, so results are deterministic.
//
//adavp:hotpath
func (s *Scratch) Track(prev, next *imgproc.Pyramid, pts []geom.Point, p Params) []Result {
	p = p.withDefaults()
	levels := s.differentiate(prev, next, pts, p)
	out := make([]Result, len(pts)) // returned: the caller owns the results
	b := &s.band
	*b = trackBand{prev: prev, next: next, gx: s.gx[:levels], gy: s.gy[:levels], pts: pts, p: p, out: out}
	par.Rows(len(pts), b)
	*b = trackBand{}
	return out
}

// trackBand is Track's band: the points [lo, hi), each solved by trackOne
// over the levels of gx and gy, with a template buffer from tmplPool per
// band.
type trackBand struct {
	prev, next *imgproc.Pyramid
	gx, gy     []*imgproc.Gray
	pts        []geom.Point
	p          Params
	out        []Result
}

//adavp:hotpath
func (b *trackBand) Rows(lo, hi int) {
	prev, next, gx, gy, pts, p, out := b.prev, b.next, b.gx, b.gy, b.pts, b.p, b.out
	tb := tmplPool.Get().(*tmplBuf)
	tb.ensure(p.WindowRadius)
	for i := lo; i < hi; i++ {
		out[i] = trackOne(prev, next, gx, gy, pts[i], len(gx), p, tb)
	}
	tmplPool.Put(tb)
}

// differentiate returns the number of pyramid levels Track works on and
// leaves in s.gx, s.gy the gradients of prev's levels inside the rectangles
// the points' template windows read; every point reuses them (read-only
// during the fan-out). p must carry its defaults.
//
//adavp:hotpath
func (s *Scratch) differentiate(prev, next *imgproc.Pyramid, pts []geom.Point, p Params) int {
	levels := min(len(prev.Levels), len(next.Levels), p.MaxLevels)
	for len(s.gx) < levels {
		s.gx = append(s.gx, nil)
		s.gy = append(s.gy, nil)
	}
	for l := 0; l < levels; l++ {
		lvl := prev.Levels[l]
		s.gx[l] = ensureSize(s.gx[l], lvl.W, lvl.H)
		s.gy[l] = ensureSize(s.gy[l], lvl.W, lvl.H)
		s.windowRects(pts, levelScale(l), p.WindowRadius, lvl.W, lvl.H)
		imgproc.GradientsRectsInto(s.gx[l], s.gy[l], lvl, s.rects, &s.img)
	}
	return levels
}

// levelScale is the factor from full-resolution coordinates to level l's.
func levelScale(l int) float64 { return 1 / float64(int(1)<<uint(l)) }

// windowRects sets s.rects to the parts of a w×h pyramid level in which
// trackOne reads gradients for pts: each point's template window, merged
// into the first rectangle it overlaps so the points of one object share one
// (rectangles may still overlap each other, which only repeats work). When
// the windows add up to half the level or more it is the whole level — the
// coarse levels, where a window is a large part of the image.
//
//adavp:hotpath
func (s *Scratch) windowRects(pts []geom.Point, scale float64, r, w, h int) {
	s.rects = s.rects[:0]
	for _, pt := range pts {
		x0, x1 := windowSpan(pt.X*scale, r, w)
		y0, y1 := windowSpan(pt.Y*scale, r, h)
		win := image.Rect(x0, y0, x1, y1)
		merged := false
		for i := range s.rects {
			if s.rects[i].Overlaps(win) {
				s.rects[i] = s.rects[i].Union(win)
				merged = true
				break
			}
		}
		if !merged {
			s.rects = append(s.rects, win)
		}
	}
	area := 0
	for _, rc := range s.rects {
		area += rc.Dx() * rc.Dy()
	}
	if 2*area >= w*h {
		s.rects = append(s.rects[:0], image.Rect(0, 0, w, h))
	}
}

// windowSpan returns the pixels [lo, hi) along one axis of length n that
// bilinear samples at c−r … c+r touch: each sample reads floor(x) and
// floor(x)+1, and taps outside the image clamp to its edge pixels. A NaN
// coordinate gets the whole axis.
func windowSpan(c float64, r, n int) (lo, hi int) {
	a := math.Floor(c - float64(r))
	b := math.Floor(c+float64(r)) + 2
	if !(a >= 0) {
		a = 0
	}
	if a > float64(n-1) {
		a = float64(n - 1)
	}
	if !(b <= float64(n)) {
		b = float64(n)
	}
	if b < a+1 {
		b = a + 1
	}
	return int(a), int(b)
}

// ensureSize returns g resized to w×h, reusing its backing array when
// possible.
func ensureSize(g *imgproc.Gray, w, h int) *imgproc.Gray {
	if g == nil {
		return imgproc.NewGray(w, h)
	}
	if cap(g.Pix) >= w*h {
		g.W, g.H = w, h
		g.Pix = g.Pix[:w*h]
		return g
	}
	return imgproc.NewGray(w, h)
}

// trackOne runs the coarse-to-fine estimation for a single point.
//
// Every window sample is Gray.Bilinear's arithmetic on Gray.At's clamped taps,
// but the floor, fraction and clamp of a coordinate are taken once per window
// column and once per window row (tb.xt, tb.yt) instead of once per sample:
// the template's once per level — gx, gy and I are the same size, so they
// share them — and J's once per Newton iteration and for the final residual.
// The coordinates keep the association the per-sample form used, base + dx in
// the template and (base + dx) + ν in J, so every entry is bitwise the floor
// and fraction Bilinear computed for the samples of its column or row.
//
//adavp:hotpath
func trackOne(prev, next *imgproc.Pyramid, gxs, gys []*imgproc.Gray, pt geom.Point, levels int, p Params, tb *tmplBuf) Result {
	// Displacement guess carried across levels, expressed at the current level.
	var guess geom.Point
	ok := true
	var residual float64
	tmplX, tmplY, tmplI := tb.x, tb.y, tb.i
	for l := levels - 1; l >= 0; l-- {
		base := pt.Scale(levelScale(l))
		I, w, h := levelPix(prev.Levels[l])
		gx, _, _ := levelPix(gxs[l])
		gy, _, _ := levelPix(gys[l])
		J, jw, jh := levelPix(next.Levels[l])

		// Structure tensor of the template window around base in I.
		tb.windowTaps(base, w, h)
		var a, b2, c float64
		k0 := 0
		for _, ty := range tb.yt {
			for _, tx := range tb.xt {
				ix := float64(bilerp(gx, tx, ty))
				iy := float64(bilerp(gy, tx, ty))
				a += ix * ix
				b2 += ix * iy
				c += iy * iy
				tmplX[k0] = ix
				tmplY[k0] = iy
				tmplI[k0] = float64(bilerp(I, tx, ty))
				k0++
			}
		}
		n := float64(len(tmplI))
		// Minimum eigenvalue normalized by window size, as in OpenCV.
		tr := (a + c) / 2
		det := math.Sqrt(((a-c)/2)*((a-c)/2) + b2*b2)
		minEig := (tr - det) / n
		if minEig < p.MinEigThreshold {
			ok = false
			break
		}
		invDet := a*c - b2*b2
		if invDet <= 0 {
			ok = false
			break
		}

		// Newton iterations refining the displacement at this level.
		nu := guess
		for iter := 0; iter < p.MaxIters; iter++ {
			tb.shiftedTaps(base, nu, jw, jh)
			var bx, by float64
			k := 0
			for _, ty := range tb.yt {
				for _, tx := range tb.xt {
					diff := tmplI[k] - float64(bilerp(J, tx, ty))
					bx += diff * tmplX[k]
					by += diff * tmplY[k]
					k++
				}
			}
			// Solve [a b2; b2 c] step = [bx; by].
			stepX := (c*bx - b2*by) / invDet
			stepY := (a*by - b2*bx) / invDet
			nu.X += stepX
			nu.Y += stepY
			if math.Hypot(stepX, stepY) < p.Epsilon {
				break
			}
		}
		guess = nu
		if l > 0 {
			guess = guess.Scale(2)
		} else {
			// Final residual at full resolution.
			tb.shiftedTaps(base, nu, jw, jh)
			var sum float64
			k := 0
			for _, ty := range tb.yt {
				for _, tx := range tb.xt {
					sum += math.Abs(tmplI[k] - float64(bilerp(J, tx, ty)))
					k++
				}
			}
			residual = sum / n
		}
	}
	final := pt.Add(guess)
	if ok {
		// Lost if the point left the frame.
		img := next.Levels[0]
		if final.X < 0 || final.Y < 0 || final.X > float64(img.W-1) || final.Y > float64(img.H-1) {
			ok = false
		}
		if p.MaxResidual > 0 && residual > p.MaxResidual {
			ok = false
		}
	}
	return Result{Pt: final, OK: ok, Residual: residual}
}

// windowTaps fills t's tap tables for the window centred on c in a w×h
// level: entry k samples c + (k−r) along its axis.
//
//adavp:hotpath
func (t *tmplBuf) windowTaps(c geom.Point, w, h int) {
	r := len(t.xt) / 2
	for k := range t.xt {
		t.xt[k] = axisTap(c.X+float64(k-r), w, 1)
	}
	for k := range t.yt {
		t.yt[k] = axisTap(c.Y+float64(k-r), h, w)
	}
}

// shiftedTaps is windowTaps for that window displaced by d: entry k samples
// (c + (k−r)) + d, the association trackOne has always sampled J at. Folding
// it into c + d + (k−r) would round differently.
//
//adavp:hotpath
func (t *tmplBuf) shiftedTaps(c, d geom.Point, w, h int) {
	r := len(t.xt) / 2
	for k := range t.xt {
		t.xt[k] = axisTap((c.X+float64(k-r))+d.X, w, 1)
	}
	for k := range t.yt {
		t.yt[k] = axisTap((c.Y+float64(k-r))+d.Y, h, w)
	}
}

// axisTap is Bilinear's floor and fraction of coordinate v and At's clamp of
// both taps to an axis of n > 0 pixels, indices scaled by stride. The upper
// tap is x0+1 in int arithmetic, as in Bilinear, so a NaN, infinite or huge
// coordinate — whose conversion is the minimum int on amd64 — clamps the way
// it always did.
//
//adavp:hotpath
func axisTap(v float64, n, stride int) tap {
	x0 := int(math.Floor(v))
	return tap{lo: clampIndex(x0, n) * stride, hi: clampIndex(x0+1, n) * stride, f: float32(v - float64(x0))}
}

// clampIndex clamps i to [0, n) the way Gray.At does.
//
//adavp:hotpath
func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// bilerp is Bilinear's interpolation of pix between the taps of a window
// column x and row y. Inside the image the clamped taps are the plain ones,
// so the same body serves interior and border samples.
//
//adavp:hotpath
func bilerp(pix []float32, x, y tap) float32 {
	v00 := pix[y.lo+x.lo]
	v10 := pix[y.lo+x.hi]
	v01 := pix[y.hi+x.lo]
	v11 := pix[y.hi+x.hi]
	top := v00 + x.f*(v10-v00)
	bot := v01 + x.f*(v11-v01)
	return top + y.f*(bot-top)
}

// zeroLevel stands in for an empty pyramid level: every tap clamps to its one
// pixel. Gray.At returns 0 for every tap of an empty image and Bilinear still
// interpolates between those zeros, so a NaN or infinite fraction stays NaN.
var zeroLevel [1]float32

// levelPix returns g's pixels and size, an empty image as zeroLevel.
//
//adavp:hotpath
func levelPix(g *imgproc.Gray) (pix []float32, w, h int) {
	if g.W == 0 || g.H == 0 {
		return zeroLevel[:], 1, 1
	}
	return g.Pix, g.W, g.H
}
