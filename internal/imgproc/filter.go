package imgproc

import (
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

// convolve1DInto applies a 1-D kernel along the given axis with border
// clamping, writing into dst (same size as g, fully overwritten; dst must
// not alias g). Rows are processed in parallel bands by convolveRowH or
// convolveRowV, whose per-pixel accumulation order matches Convolve1DRef tap
// for tap, so output is bitwise-identical to the scalar reference at every
// worker count. The band is s's.
//
//adavp:hotpath
func convolve1DInto(dst, g *Gray, kernel []float32, horizontal bool, s *Scratch) {
	if g.W == 0 || g.H == 0 {
		return
	}
	b := &s.conv
	*b = convBand{dst: dst, g: g, kernel: kernel, horizontal: horizontal}
	par.Rows(g.H, b)
	*b = convBand{}
}

// convBand is convolve1DInto's band: whole rows of the convolution.
type convBand struct {
	dst, g     *Gray
	kernel     []float32
	horizontal bool
}

//adavp:hotpath
func (b *convBand) Rows(lo, hi int) {
	dst, g, kernel, horizontal := b.dst, b.g, b.kernel, b.horizontal
	for y := lo; y < hi; y++ {
		convolveRow(dst.Row(y), g, kernel, horizontal, y, 0, g.W)
	}
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

// GaussianBlurInto smooths g with a separable Gaussian of the given sigma into
// dst (same size, fully overwritten; must not alias g) drawing the
// intermediate pass from s, allocating nothing in steady state. Sigma <= 0
// copies the input.
//
//adavp:hotpath
func GaussianBlurInto(dst, g *Gray, sigma float64, s *Scratch) {
	if sigma <= 0 {
		copy(dst.Pix, g.Pix)
		return
	}
	k := s.gaussianKernel(sigma)
	tmp := s.Take(g.W, g.H)
	convolve1DInto(tmp, g, k, true, s)
	convolve1DInto(dst, tmp, k, false, s)
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

// Downsample2Into reduces g by a factor of two into dst (which must be
// g.W/2 × g.H/2, fully overwritten), drawing temporaries from s: the
// Burt–Adelson [1 4 6 4 1]/16 anti-aliasing filter along both axes, then
// decimation. It is the pyramid reduction step used by pyramidal
// Lucas–Kanade. Images with odd dimensions lose the last row/column,
// matching OpenCV's buildOpticalFlowPyramid. The filter is fused with the
// decimation: the horizontal Burt–Adelson pass is evaluated only at even
// source columns (the only ones decimation keeps) into a half-width
// intermediate, and the vertical pass only at even source rows — about 37% of
// the arithmetic of filter-everything-then-decimate. Outputs
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
	bh, bv := &s.downH, &s.downV
	*bh = downHBand{g: g, tmp: tmp, xHi: max(1, (g.W-1)/2)}
	par.Rows(g.H, bh)
	*bh = downHBand{}
	*bv = downVBand{dst: dst, tmp: tmp, yHi: max(1, (g.H-1)/2)}
	par.Rows(h, bv)
	*bv = downVBand{}
	s.Put(tmp)
}

// downHBand is Downsample2Into's horizontal pass: source rows of g filtered
// at even columns into tmp, which is dst.W wide.
type downHBand struct {
	g, tmp *Gray
	xHi    int
}

//adavp:hotpath
func (b *downHBand) Rows(lo, hi int) {
	g, tmp, xHi := b.g, b.tmp, b.xHi
	w := tmp.W
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
}

// downVBand is Downsample2Into's vertical pass: rows of dst filtered from the
// even rows of tmp.
type downVBand struct {
	dst, tmp *Gray
	yHi      int
}

//adavp:hotpath
func (b *downVBand) Rows(lo, hi int) {
	dst, tmp, yHi := b.dst, b.tmp, b.yHi
	w := dst.W
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
