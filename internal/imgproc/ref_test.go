package imgproc

import "math"

// This file retains the original scalar implementations of the hot kernels,
// exactly as they were before the flat-indexed, banded-parallel rewrite:
// per-pixel loops over the bounds-checked At accessor, allocating their
// outputs. They are the golden references — the parity tests assert the
// optimized kernels are bitwise-identical to them at several sizes and
// worker counts, and the Kernel benchmarks report the rewrite's speedup
// against them. Only this package's tests call them. They must not be "optimized": their value is being obviously
// correct and unchanged.

// BilinearRef is the scalar reference for Gray.Bilinear: four clamped At
// taps, no interior fast path.
func (g *Gray) BilinearRef(x, y float64) float32 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	v00 := g.At(x0, y0)
	v10 := g.At(x0+1, y0)
	v01 := g.At(x0, y0+1)
	v11 := g.At(x0+1, y0+1)
	top := v00 + fx*(v10-v00)
	bot := v01 + fx*(v11-v01)
	return top + fy*(bot-top)
}

// ResizeRef is the scalar reference for Gray.ResizeInto.
func (g *Gray) ResizeRef(w, h int) *Gray {
	out := NewGray(w, h)
	if w == 0 || h == 0 || g.W == 0 || g.H == 0 {
		return out
	}
	sx := float64(g.W) / float64(w)
	sy := float64(g.H) / float64(h)
	for y := 0; y < h; y++ {
		srcY := (float64(y)+0.5)*sy - 0.5
		for x := 0; x < w; x++ {
			srcX := (float64(x)+0.5)*sx - 0.5
			out.Pix[y*w+x] = g.BilinearRef(srcX, srcY)
		}
	}
	return out
}

// Convolve1DRef is the scalar reference for convolve1DInto.
func Convolve1DRef(g *Gray, kernel []float32, horizontal bool) *Gray {
	out := NewGray(g.W, g.H)
	radius := len(kernel) / 2
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var acc float32
			for i, kv := range kernel {
				off := i - radius
				if horizontal {
					acc += kv * g.At(x+off, y)
				} else {
					acc += kv * g.At(x, y+off)
				}
			}
			out.Pix[y*g.W+x] = acc
		}
	}
	return out
}

// GaussianBlurRef is the scalar reference for GaussianBlurInto.
func GaussianBlurRef(g *Gray, sigma float64) *Gray {
	if sigma <= 0 {
		return g.Clone()
	}
	k := GaussianKernel(sigma)
	return Convolve1DRef(Convolve1DRef(g, k, true), k, false)
}

// The Scharr kernels as the reference applies them: smooth [3 10 3]/16 and
// difference [-1 0 1]/2, the taps of scharr.go's constants.
var (
	scharrSmooth = []float32{scharrS0, scharrS1, scharrS0}
	scharrDiff   = []float32{scharrD0, scharrD1, scharrD2}
)

// GradientsRef is the scalar reference for GradientsInto.
func GradientsRef(g *Gray) (gx, gy *Gray) {
	gx = Convolve1DRef(Convolve1DRef(g, scharrDiff, true), scharrSmooth, false)
	gy = Convolve1DRef(Convolve1DRef(g, scharrSmooth, true), scharrDiff, false)
	return gx, gy
}

// Downsample2Ref is the scalar reference for Downsample2Into.
func Downsample2Ref(g *Gray) *Gray {
	sm := Convolve1DRef(Convolve1DRef(g, burtAdelson, true), burtAdelson, false)
	w := g.W / 2
	h := g.H / 2
	out := NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Pix[y*w+x] = sm.At(2*x, 2*y)
		}
	}
	return out
}

// NewPyramidRef is the scalar reference for NewPyramid.
func NewPyramidRef(g *Gray, maxLevels int) *Pyramid {
	if maxLevels < 1 {
		maxLevels = 1
	}
	p := &Pyramid{Levels: []*Gray{g}}
	for len(p.Levels) < maxLevels {
		last := p.Levels[len(p.Levels)-1]
		if last.W/2 < 16 || last.H/2 < 16 {
			break
		}
		p.Levels = append(p.Levels, Downsample2Ref(last))
	}
	return p
}

// NewIntegralRef is the scalar reference for NewIntegral.
func NewIntegralRef(g *Gray) *Integral {
	w, h := g.W, g.H
	it := &Integral{W: w, H: h, sum: make([]float64, (w+1)*(h+1))}
	stride := w + 1
	for y := 0; y < h; y++ {
		var rowSum float64
		for x := 0; x < w; x++ {
			rowSum += float64(g.Pix[y*w+x])
			it.sum[(y+1)*stride+(x+1)] = it.sum[y*stride+(x+1)] + rowSum
		}
	}
	return it
}
