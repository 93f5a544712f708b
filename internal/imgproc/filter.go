package imgproc

import (
	"image"
	"math"

	"adavp/internal/par"
)

// GaussianKernel returns a normalized 1-D Gaussian kernel for the given
// sigma. The radius is ceil(3*sigma), covering 99.7% of the distribution.
// Sigma values <= 0 return the identity kernel [1].
func GaussianKernel(sigma float64) []float32 {
	if sigma <= 0 {
		return []float32{1}
	}
	radius := int(math.Ceil(3 * sigma))
	k := make([]float32, 2*radius+1)
	var sum float64
	for i := -radius; i <= radius; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		k[i+radius] = float32(v)
		sum += v
	}
	inv := float32(1 / sum)
	for i := range k {
		k[i] *= inv
	}
	return k
}

// convolve1D applies a 1-D kernel along the given axis with border clamping,
// allocating the output.
func convolve1D(g *Gray, kernel []float32, horizontal bool) *Gray {
	out := NewGray(g.W, g.H)
	convolve1DInto(out, g, kernel, horizontal)
	return out
}

// convolve1DInto applies a 1-D kernel along the given axis with border
// clamping, writing into dst (same size as g, fully overwritten; dst must
// not alias g). Rows are processed in parallel bands by convolveRowH or
// convolveRowV, whose per-pixel accumulation order matches convolve1DRef tap
// for tap, so output is bitwise-identical to the scalar reference at every
// worker count.
//
//adavp:hotpath
func convolve1DInto(dst, g *Gray, kernel []float32, horizontal bool) {
	w, h := g.W, g.H
	if w == 0 || h == 0 {
		return
	}
	par.Rows(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			convolveRow(dst.Row(y), g, kernel, horizontal, y, 0, w)
		}
	})
}

// convolveRects is convolve1DInto restricted to rects, which must lie inside
// the image: only the pixels inside some rectangle are written, each to the
// value the whole-image pass gives it (a pixel's taps do not depend on where
// the pass started), and the rest of dst is left as it was. Rectangles may
// overlap. grow extends every rectangle by that many rows up and down,
// clamped to the image: the rows a vertical pass over rects will read. The
// bands split the row span the rectangles cover, and a band works the rows of
// every rectangle that fall inside it, so the call costs one fan-out however
// many rectangles there are.
//
//adavp:hotpath
func convolveRects(dst, g *Gray, kernel []float32, horizontal bool, rects []image.Rectangle, grow int) {
	y0, y1 := g.H, 0
	for _, r := range rects {
		y0, y1 = min(y0, r.Min.Y-grow), max(y1, r.Max.Y+grow)
	}
	y0, y1 = max(y0, 0), min(y1, g.H)
	par.Rows(y1-y0, func(lo, hi int) {
		for _, r := range rects {
			for y := max(r.Min.Y-grow, y0+lo); y < min(r.Max.Y+grow, y0+hi); y++ {
				convolveRow(dst.Row(y), g, kernel, horizontal, y, r.Min.X, r.Max.X)
			}
		}
	})
}

// convolveRow writes columns [x0, x1) of row y of the convolution of g along
// the given axis into out (a full row).
//
//adavp:hotpath
func convolveRow(out []float32, g *Gray, kernel []float32, horizontal bool, y, x0, x1 int) {
	if horizontal {
		convolveRowH(out, g, kernel, y, x0, x1)
	} else {
		convolveRowV(out, g, kernel, y, x0, x1)
	}
}

// convolveRowH writes columns [x0, x1) of row y of the horizontal convolution
// of g into out (a full row). Columns whose kernel support lies inside the
// image read a contiguous window of their own row; the others take the
// clamped taps of the scalar reference.
//
//adavp:hotpath
func convolveRowH(out []float32, g *Gray, kernel []float32, y, x0, x1 int) {
	radius := len(kernel) / 2
	row := g.Row(y)
	// Interior columns [iLo, iHi): all taps in bounds.
	iLo := min(max(x0, radius), x1)
	iHi := max(min(x1, g.W-radius), iLo)
	for x := x0; x < iLo; x++ {
		out[x] = convolveClampedH(g, kernel, radius, x, y)
	}
	for x := iLo; x < iHi; x++ {
		var acc float32
		win := row[x-radius:]
		for i, kv := range kernel {
			acc += kv * win[i]
		}
		out[x] = acc
	}
	for x := iHi; x < x1; x++ {
		out[x] = convolveClampedH(g, kernel, radius, x, y)
	}
}

// convolveRowV writes columns [x0, x1) of row y of the vertical convolution
// of g into out (len ≥ x1). Interior rows [radius, h-radius) see every tap
// row in bounds, so the taps accumulate column-wise over whole rows — the
// same additions in the same order as the per-pixel reference, starting, as
// it does, from +0 (a first product of −0 stays −0 on its own but is +0 once
// added to +0); border rows take its clamped taps.
//
//adavp:hotpath
func convolveRowV(out []float32, g *Gray, kernel []float32, y, x0, x1 int) {
	radius := len(kernel) / 2
	if y >= radius && y+radius < g.H {
		out = out[x0:x1]
		first := g.Row(y - radius)[x0:x1]
		kv0 := kernel[0]
		for x := range out {
			out[x] = 0 + kv0*first[x]
		}
		for i := 1; i < len(kernel); i++ {
			kv := kernel[i]
			row := g.Row(y - radius + i)[x0:x1]
			for x := range out {
				out[x] += kv * row[x]
			}
		}
		return
	}
	for x := x0; x < x1; x++ {
		var acc float32
		for i, kv := range kernel {
			acc += kv * g.At(x, y+i-radius)
		}
		out[x] = acc
	}
}

// convolveClampedH is the border path of the horizontal convolution: the
// same per-tap clamped accumulation the scalar reference performs.
//
//adavp:hotpath
func convolveClampedH(g *Gray, kernel []float32, radius, x, y int) float32 {
	var acc float32
	for i, kv := range kernel {
		acc += kv * g.At(x+i-radius, y)
	}
	return acc
}

// GaussianBlur returns the image smoothed with a separable Gaussian of the
// given sigma. Sigma <= 0 returns a copy of the input.
func GaussianBlur(g *Gray, sigma float64) *Gray {
	if sigma <= 0 {
		return g.Clone()
	}
	k := GaussianKernel(sigma)
	tmp := convolve1D(g, k, true)
	out := NewGray(g.W, g.H)
	convolve1DInto(out, tmp, k, false)
	return out
}

// GaussianBlurInto smooths g into dst (same size, fully overwritten; must
// not alias g) drawing the intermediate pass from s, allocating nothing in
// steady state. Sigma <= 0 copies the input.
//
//adavp:hotpath
func GaussianBlurInto(dst, g *Gray, sigma float64, s *Scratch) {
	if sigma <= 0 {
		copy(dst.Pix, g.Pix)
		return
	}
	k := s.gaussianKernel(sigma)
	tmp := s.Take(g.W, g.H)
	convolve1DInto(tmp, g, k, true)
	convolve1DInto(dst, tmp, k, false)
	s.Put(tmp)
}

// Scharr gradient kernels. Scharr's 3×3 operator has better rotational
// symmetry than Sobel, which matters for the structure-tensor eigenvalues
// used by the good-features-to-track detector.
//
// The separable form of the Scharr x-gradient is smooth [3 10 3]/16 along y
// and difference [-1 0 1]/2 along x.
var (
	scharrSmooth = []float32{3.0 / 16, 10.0 / 16, 3.0 / 16}
	scharrDiff   = []float32{-0.5, 0, 0.5}
)

// gradientAxis computes a smoothed derivative along one axis.
func gradientAxis(g *Gray, horizontal bool) *Gray {
	if horizontal {
		return convolve1D(convolve1D(g, scharrDiff, true), scharrSmooth, false)
	}
	return convolve1D(convolve1D(g, scharrSmooth, true), scharrDiff, false)
}

// Gradients returns the Scharr image gradients (dI/dx, dI/dy).
func Gradients(g *Gray) (gx, gy *Gray) {
	return gradientAxis(g, true), gradientAxis(g, false)
}

// GradientsInto computes the Scharr gradients into gx, gy (same size as g,
// fully overwritten) using s for the intermediate pass, allocating nothing
// when the scratch already holds a same-size buffer. It is GradientsRectsInto
// over the whole image.
//
//adavp:hotpath
func GradientsInto(gx, gy, g *Gray, s *Scratch) {
	s.whole[0] = image.Rect(0, 0, g.W, g.H)
	GradientsRectsInto(gx, gy, g, s.whole[:], s)
}

// GradientsRectsInto computes the Scharr gradients of g inside rects only:
// every pixel of gx, gy (same size as g) that lies in some rectangle gets
// bitwise the value GradientsInto gives it, clamped image borders included,
// and the others keep whatever they held. Rectangles must lie inside the
// image and may overlap. A caller that reads gradients in a few windows — the
// Lucas–Kanade solver's templates — pays for those windows instead of four
// whole-image passes.
//
//adavp:hotpath
func GradientsRectsInto(gx, gy, g *Gray, rects []image.Rectangle, s *Scratch) {
	// The vertical taps read one row above and below each rectangle, so the
	// horizontal passes cover those too.
	tmp := s.Take(g.W, g.H)
	convolveRects(tmp, g, scharrDiff, true, rects, 1)
	convolveRects(gx, tmp, scharrSmooth, false, rects, 0)
	convolveRects(tmp, g, scharrSmooth, true, rects, 1)
	convolveRects(gy, tmp, scharrDiff, false, rects, 0)
	s.Put(tmp)
}

// burtAdelson is the [1 4 6 4 1]/16 anti-aliasing filter used by the
// pyramid reduction step; ba0, ba1 and ba2 are its outer, inner and centre
// taps, which the register passes of Downsample2Into use as constants.
const (
	ba0 float32 = 1.0 / 16
	ba1 float32 = 4.0 / 16
	ba2 float32 = 6.0 / 16
)

var burtAdelson = []float32{ba0, ba1, ba2, ba1, ba0}

// Downsample2 returns the image reduced by a factor of two with the
// Burt–Adelson [1 4 6 4 1]/16 anti-aliasing filter applied along both axes
// before decimation. It is the pyramid reduction step used by pyramidal
// Lucas–Kanade. Images with odd dimensions lose the last row/column,
// matching OpenCV's buildOpticalFlowPyramid.
func Downsample2(g *Gray) *Gray {
	out := NewGray(g.W/2, g.H/2)
	var s Scratch
	Downsample2Into(out, g, &s)
	return out
}

// Downsample2Into performs the pyramid reduction into dst (which must be
// g.W/2 × g.H/2, fully overwritten), drawing temporaries from s. The filter
// is fused with the decimation: the horizontal Burt–Adelson pass is evaluated
// only at even source columns (the only ones decimation keeps) into a
// half-width intermediate, and the vertical pass only at even source rows —
// about 37% of the arithmetic of filter-everything-then-decimate. Outputs
// whose five taps are all in bounds accumulate in a register with the taps as
// constants: a horizontal one reads one five-pixel slice of its row, and a
// vertical output row is one sweep over its five source rows. Border outputs
// take the clamped per-tap path. Every value starts from +0 and adds the
// identical products in the identical order as Convolve1DRef, so the output
// is bitwise-identical to Downsample2Ref.
//
//adavp:hotpath
func Downsample2Into(dst, g *Gray, s *Scratch) {
	w, h := dst.W, dst.H
	if w == 0 || h == 0 {
		return
	}
	tmp := s.Take(w, g.H)
	// Destination columns [1, xHi) and rows [1, yHi) have their source column
	// or row at least two pixels from either edge.
	xHi, yHi := max(1, (g.W-1)/2), max(1, (g.H-1)/2)
	par.Rows(g.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			row := g.Row(y)
			out := tmp.Row(y)
			out[0] = convolveClampedH(g, burtAdelson, 2, 0, y)
			for x := 1; x < xHi; x++ {
				win := row[2*x-2 : 2*x+3]
				out[x] = 0 + ba0*win[0] + ba1*win[1] + ba2*win[2] + ba1*win[3] + ba0*win[4]
			}
			for x := xHi; x < w; x++ {
				out[x] = convolveClampedH(g, burtAdelson, 2, 2*x, y)
			}
		}
	})
	par.Rows(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			if y < 1 || y >= yHi {
				convolveRowV(dst.Row(y), tmp, burtAdelson, 2*y, 0, w)
				continue
			}
			out, c := dst.Row(y)[:w], 2*y
			r0, r1, r2, r3, r4 := tmp.Row(c - 2)[:w], tmp.Row(c - 1)[:w], tmp.Row(c)[:w], tmp.Row(c + 1)[:w], tmp.Row(c + 2)[:w]
			for x := range out {
				out[x] = 0 + ba0*r0[x] + ba1*r1[x] + ba2*r2[x] + ba1*r3[x] + ba0*r4[x]
			}
		}
	})
	s.Put(tmp)
}

// Pyramid is a coarse-to-fine stack of images. Level 0 is the original
// resolution; level i has roughly 2^-i the linear size.
type Pyramid struct {
	Levels []*Gray
}

// NewPyramid builds a pyramid with up to maxLevels levels (at least one).
// Construction stops early once a level would shrink below 16 pixels on a
// side, because Lucas–Kanade windows no longer fit.
func NewPyramid(g *Gray, maxLevels int) *Pyramid {
	p := &Pyramid{}
	var s Scratch
	p.Rebuild(g, maxLevels, &s)
	return p
}

// Rebuild reconstructs the pyramid in place for a new frame: level 0 aliases
// g (not copied, not owned), and the reduced levels reuse the buffers of the
// previous build when their sizes match. This is what lets the pixel tracker
// swap two pyramids frame over frame instead of reallocating the whole stack
// (≈1.3 MB per 704-wide frame) every Step. Temporaries come from s.
func (p *Pyramid) Rebuild(g *Gray, maxLevels int, s *Scratch) {
	if maxLevels < 1 {
		maxLevels = 1
	}
	prev := p.Levels
	p.Levels = p.Levels[:0]
	p.Levels = append(p.Levels, g)
	for len(p.Levels) < maxLevels {
		last := p.Levels[len(p.Levels)-1]
		w, h := last.W/2, last.H/2
		if w < 16 || h < 16 {
			break
		}
		var dst *Gray
		if i := len(p.Levels); i < len(prev) && prev[i] != nil && prev[i].W == w && prev[i].H == h {
			dst = prev[i]
		} else {
			dst = NewGray(w, h)
		}
		Downsample2Into(dst, last, s)
		p.Levels = append(p.Levels, dst)
	}
}
