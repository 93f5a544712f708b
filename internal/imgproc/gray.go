// Package imgproc implements the grayscale image-processing primitives that
// AdaVP's object tracker is built on: bilinear sampling and resize, separable
// Gaussian smoothing, Scharr gradients, image pyramids, integral images and
// PGM serialization.
//
// Images use float32 pixels in [0, 1]. Floating-point pixels keep the
// Lucas–Kanade solver numerically clean (sub-pixel interpolation, gradient
// products) without repeated conversions.
package imgproc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"adavp/internal/par"
)

// Gray is a single-channel image with float32 pixels in row-major order.
// Pixel values are nominally in [0, 1] but the type does not enforce it.
type Gray struct {
	W, H int
	Pix  []float32
}

// NewGray allocates a zeroed W×H image. It panics if either dimension is
// negative.
func NewGray(w, h int) *Gray {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imgproc: invalid image size %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]float32, w*h)}
}

// Clone returns a deep copy of g.
func (g *Gray) Clone() *Gray {
	out := &Gray{W: g.W, H: g.H, Pix: make([]float32, len(g.Pix))}
	copy(out.Pix, g.Pix)
	return out
}

// Bounds reports whether (x, y) lies inside the image.
func (g *Gray) Bounds(x, y int) bool {
	return x >= 0 && x < g.W && y >= 0 && y < g.H
}

// At returns the pixel at (x, y) with border clamping: coordinates outside
// the image are clamped to the nearest edge pixel. Sampling an empty image
// returns 0.
func (g *Gray) At(x, y int) float32 {
	if g.W == 0 || g.H == 0 {
		return 0
	}
	if x < 0 {
		x = 0
	} else if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// Row returns the pixels of row y as a slice aliasing the image storage.
// It is the flat-indexed access path the hot kernels use instead of the
// bounds-checked At. It panics if y is out of range.
func (g *Gray) Row(y int) []float32 {
	return g.Pix[y*g.W : (y+1)*g.W]
}

// Set writes the pixel at (x, y). Out-of-bounds writes are ignored.
func (g *Gray) Set(x, y int, v float32) {
	if !g.Bounds(x, y) {
		return
	}
	g.Pix[y*g.W+x] = v
}

// Fill sets every pixel to v.
func (g *Gray) Fill(v float32) {
	for i := range g.Pix {
		g.Pix[i] = v
	}
}

// Bilinear samples the image at continuous coordinates (x, y) using bilinear
// interpolation with border clamping. The pixel grid convention places pixel
// centers at integer coordinates. Interior samples (all four taps in
// bounds) take a flat-indexed fast path; the arithmetic is identical to the
// clamped path, so the fast path is bitwise-equivalent.
//
//adavp:hotpath
func (g *Gray) Bilinear(x, y float64) float32 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	if x0 >= 0 && y0 >= 0 && x0+1 < g.W && y0+1 < g.H {
		i := y0*g.W + x0
		v00 := g.Pix[i]
		v10 := g.Pix[i+1]
		v01 := g.Pix[i+g.W]
		v11 := g.Pix[i+g.W+1]
		top := v00 + fx*(v10-v00)
		bot := v01 + fx*(v11-v01)
		return top + fy*(bot-top)
	}
	v00 := g.At(x0, y0)
	v10 := g.At(x0+1, y0)
	v01 := g.At(x0, y0+1)
	v11 := g.At(x0+1, y0+1)
	top := v00 + fx*(v10-v00)
	bot := v01 + fx*(v11-v01)
	return top + fy*(bot-top)
}

// resizeTaps holds the per-destination-column tap tables of one ResizeInto
// call. They are pooled rather than stack-allocated because their size is the
// destination width (unknown at compile time) and rather than kept on Gray
// because concurrent resizes of the same source — a watchdog-abandoned
// detection racing its retry — must not share them.
type resizeTaps struct {
	x0s []int32
	fxs []float32
}

// ensure resizes the tap tables to w columns, reallocating only on growth.
//
//adavp:hotpath
func (t *resizeTaps) ensure(w int) {
	if cap(t.x0s) < w {
		t.x0s = make([]int32, w)
		t.fxs = make([]float32, w)
	}
	t.x0s = t.x0s[:w]
	t.fxs = t.fxs[:w]
}

// resizeTapPool hands out tap tables to overlapping resize calls. The
// single-slot cache in front of it exists because sync.Pool contents are
// dropped by the garbage collector: under allocation pressure every resize
// paid a pool refill (new(resizeTaps) plus two table allocations, the
// allocs/op regression the ResizeInto row of TestSteadyStateAllocs pins),
// while the atomic cell survives GC, so the serial steady state is
// allocation-free again.
// Concurrent resizes — a watchdog-abandoned detection racing its retry —
// overflow to the pool, which refills on demand.
var (
	resizeTapCache atomic.Pointer[resizeTaps]
	resizeTapPool  = sync.Pool{New: func() any { return new(resizeTaps) }}
)

// ResizeInto scales the image into dst (whose W, H select the target size) by
// bilinear interpolation, overwriting its pixels. This is the operation that
// models feeding a camera frame into a DNN at a given input size (e.g.
// YOLOv3-320 vs YOLOv3-608): the smaller the target, the more fine detail is
// destroyed. Destination rows are computed in parallel bands; each
// destination pixel runs the same scalar arithmetic as Bilinear, so the
// output is bitwise-identical for every worker count. Interior destination
// pixels — those whose four source taps are all in bounds — skip the clamped
// At path entirely.
//
//adavp:hotpath
func (g *Gray) ResizeInto(dst *Gray) {
	w, h := dst.W, dst.H
	if w == 0 || h == 0 {
		return
	}
	if g.W == 0 || g.H == 0 {
		dst.Fill(0)
		return
	}
	sx := float64(g.W) / float64(w)
	sy := float64(g.H) / float64(h)
	// The x tap of a destination column is the same for every row; hoist the
	// floor and fraction out of the row loop. srcX is monotonic in x, so the
	// columns whose two x taps are both in bounds form one contiguous range
	// [xLo, xHi) — the branch-free interior of the per-row loop below. The
	// fraction stored here is bit-for-bit the one Bilinear would compute.
	taps := resizeTapCache.Swap(nil)
	if taps == nil {
		taps = resizeTapPool.Get().(*resizeTaps)
	}
	taps.ensure(w)
	x0s, fxs := taps.x0s, taps.fxs
	xLo, xHi := w, 0
	for x := 0; x < w; x++ {
		srcX := (float64(x)+0.5)*sx - 0.5
		x0 := int(math.Floor(srcX))
		x0s[x] = int32(x0)
		fxs[x] = float32(srcX - float64(x0))
		if x0 >= 0 && x0+1 < g.W {
			if x < xLo {
				xLo = x
			}
			xHi = x + 1
		}
	}
	if xHi < xLo {
		xHi = xLo
	}
	par.Rows(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			// Sample at the center of each destination pixel mapped to source
			// coordinates; the -0.5 terms align the two pixel grids.
			srcY := (float64(y)+0.5)*sy - 0.5
			y0 := int(math.Floor(srcY))
			fy := float32(srcY - float64(y0))
			out := dst.Row(y)
			if y0 >= 0 && y0+1 < g.H {
				// Interior rows: both source rows exist, so only the x taps
				// can leave the image.
				top := g.Row(y0)
				bot := g.Row(y0 + 1)
				for x := 0; x < xLo; x++ {
					out[x] = g.Bilinear((float64(x)+0.5)*sx-0.5, srcY)
				}
				for x := xLo; x < xHi; x++ {
					x0 := int(x0s[x])
					fx := fxs[x]
					v00 := top[x0]
					v10 := top[x0+1]
					v01 := bot[x0]
					v11 := bot[x0+1]
					t := v00 + fx*(v10-v00)
					b := v01 + fx*(v11-v01)
					out[x] = t + fy*(b-t)
				}
				for x := xHi; x < w; x++ {
					out[x] = g.Bilinear((float64(x)+0.5)*sx-0.5, srcY)
				}
				continue
			}
			for x := 0; x < w; x++ {
				srcX := (float64(x)+0.5)*sx - 0.5
				out[x] = g.Bilinear(srcX, srcY)
			}
		}
	})
	if !resizeTapCache.CompareAndSwap(nil, taps) {
		resizeTapPool.Put(taps)
	}
}

// Mean returns the average pixel value, or 0 for an empty image.
func (g *Gray) Mean() float64 {
	if len(g.Pix) == 0 {
		return 0
	}
	var sum float64
	for _, v := range g.Pix {
		sum += float64(v)
	}
	return sum / float64(len(g.Pix))
}
