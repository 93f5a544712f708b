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
// differentiated), the imgproc temporaries behind them and the window list. A
// Scratch belongs to one pipeline stage and is not safe for concurrent use;
// the per-point template windows, whose lifetime spans only one banded
// worker, come from a sync.Pool instead.
type Scratch struct {
	gx, gy []*imgproc.Gray
	img    imgproc.Scratch
	rects  []image.Rectangle
}

// tmplBuf is one worker's template window (gradients and intensities of the
// patch being tracked).
type tmplBuf struct {
	x, y, i []float64
}

var tmplPool = sync.Pool{New: func() any { return new(tmplBuf) }}

// ensure resizes the template buffers for window radius r.
//
//adavp:hotpath
func (t *tmplBuf) ensure(r int) {
	n := (2*r + 1) * (2*r + 1)
	if cap(t.x) < n {
		t.x = make([]float64, n)
		t.y = make([]float64, n)
		t.i = make([]float64, n)
	}
	t.x, t.y, t.i = t.x[:n], t.y[:n], t.i[:n]
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
	levels := len(prev.Levels)
	if l := len(next.Levels); l < levels {
		levels = l
	}
	if levels > p.MaxLevels {
		levels = p.MaxLevels
	}
	// Precompute gradients of the previous image once per level, inside the
	// rectangles the points' template windows read; every point reuses them
	// (read-only during the fan-out).
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
	out := make([]Result, len(pts)) //adavp:alloc-ok the result slice is returned; its ownership transfers to the caller
	par.Rows(len(pts), func(lo, hi int) {
		tb := tmplPool.Get().(*tmplBuf)
		tb.ensure(p.WindowRadius)
		for i := lo; i < hi; i++ {
			out[i] = trackOne(prev, next, s.gx[:levels], s.gy[:levels], pts[i], levels, p, tb)
		}
		tmplPool.Put(tb)
	})
	return out
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
//
//adavp:amortized allocates only on first use or when the pyramid level grows; steady-state frames reuse the array
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
//adavp:hotpath
func trackOne(prev, next *imgproc.Pyramid, gxs, gys []*imgproc.Gray, pt geom.Point, levels int, p Params, tb *tmplBuf) Result {
	r := p.WindowRadius
	// Displacement guess carried across levels, expressed at the current level.
	var guess geom.Point
	ok := true
	var residual float64
	for l := levels - 1; l >= 0; l-- {
		base := pt.Scale(levelScale(l))
		I := prev.Levels[l]
		J := next.Levels[l]
		gx := gxs[l]
		gy := gys[l]

		// Structure tensor of the template window around base in I.
		var a, b2, c float64
		tmplX := tb.x
		tmplY := tb.y
		tmplI := tb.i
		k0 := 0
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				x := base.X + float64(dx)
				y := base.Y + float64(dy)
				ix := float64(gx.Bilinear(x, y))
				iy := float64(gy.Bilinear(x, y))
				a += ix * ix
				b2 += ix * iy
				c += iy * iy
				tmplX[k0] = ix
				tmplY[k0] = iy
				tmplI[k0] = float64(I.Bilinear(x, y))
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
			var bx, by float64
			k := 0
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					x := base.X + float64(dx)
					y := base.Y + float64(dy)
					diff := tmplI[k] - float64(J.Bilinear(x+nu.X, y+nu.Y))
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
			var sum float64
			k := 0
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					x := base.X + float64(dx)
					y := base.Y + float64(dy)
					sum += math.Abs(tmplI[k] - float64(J.Bilinear(x+nu.X, y+nu.Y)))
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
