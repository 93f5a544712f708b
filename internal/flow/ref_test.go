package flow

import (
	"math"

	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/par"
)

// bandFunc adapts a func to a par.Band, for the references that build their
// bands in place.
type bandFunc func(lo, hi int)

func (f bandFunc) Rows(lo, hi int) { f(lo, hi) }

// trackOneRef is trackOne as it was before it sampled through tap tables:
// every window sample is a Gray.Bilinear call. It is kept verbatim as the
// parity reference — TestTrackOneMatchesReference and FuzzTrackOne compare
// trackOne with it bit for bit — and must not be optimized.
func trackOneRef(prev, next *imgproc.Pyramid, gxs, gys []*imgproc.Gray, pt geom.Point, levels int, p Params, tb *tmplBuf) Result {
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

// trackRef is Scratch.Track with trackOneRef as the per-point solver — the
// same windowed gradients and fan-out — for BenchmarkTrack704Ref.
func (s *Scratch) trackRef(prev, next *imgproc.Pyramid, pts []geom.Point, p Params) []Result {
	p = p.withDefaults()
	levels := s.differentiate(prev, next, pts, p)
	out := make([]Result, len(pts))
	par.Rows(len(pts), bandFunc(func(lo, hi int) {
		tb := tmplPool.Get().(*tmplBuf)
		tb.ensure(p.WindowRadius)
		for i := lo; i < hi; i++ {
			out[i] = trackOneRef(prev, next, s.gx[:levels], s.gy[:levels], pts[i], levels, p, tb)
		}
		tmplPool.Put(tb)
	}))
	return out
}
