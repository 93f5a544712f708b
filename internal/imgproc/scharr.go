package imgproc

import (
	"image"
	"sync/atomic"

	"adavp/internal/par"
)

// Scharr gradient kernels. Scharr's 3×3 operator has better rotational
// symmetry than Sobel, which matters for the structure-tensor eigenvalues
// used by the good-features-to-track detector.
//
// The separable form of the Scharr x-gradient is smooth [3 10 3]/16 along y
// and difference [-1 0 1]/2 along x; the y-gradient swaps the axes. The taps
// are constants so that the passes below accumulate in registers; the
// difference's zero tap is multiplied like the others, because 0·NaN, 0·±Inf
// and +0 + −0 are part of the value the reference computes.
const (
	scharrS0 float32 = 3.0 / 16
	scharrS1 float32 = 10.0 / 16
	scharrD0 float32 = -0.5
	scharrD1 float32 = 0
	scharrD2 float32 = 0.5
)

// GradientRows receives the rows of a StreamGradients call. GradientRow(y,
// gx, gy) hands over row y's gradients in the call rectangle's columns
// [x0, x1) of gx and gy, which are indexed by image column. The slices belong
// to the band that computed them and hold the band's next row after the call
// returns, so a receiver keeps what it needs by value. Rows of different
// bands arrive concurrently: a receiver writes only what belongs to row y.
type GradientRows interface {
	GradientRow(y int, gx, gy []float32)
}

// GradientsInto computes the Scharr image gradients (dI/dx, dI/dy) into gx, gy
// (same size as g, fully overwritten), allocating nothing when s has served a
// call as wide before. It is GradientsRectsInto over the whole image.
//
//adavp:hotpath
func GradientsInto(gx, gy, g *Gray, s *Scratch) {
	s.whole[0] = image.Rect(0, 0, g.W, g.H)
	GradientsRectsInto(gx, gy, g, s.whole[:], s)
}

// GradientsRectsInto computes the Scharr gradients of g inside rects only:
// every pixel of gx, gy (same size as g) that lies in some rectangle gets
// bitwise the value of the separable reference — horizontal pass, then
// vertical pass, clamped image borders included — and the others keep
// whatever they held. Rectangles must lie inside the image and may overlap. A
// caller that reads gradients in a few windows — the Lucas–Kanade solver's
// templates — pays for those windows and not for whole-image passes. It is
// the streamed body of scharrBand: one fan-out per call.
//
//adavp:hotpath
func GradientsRectsInto(gx, gy, g *Gray, rects []image.Rectangle, s *Scratch) {
	s.scharr(g, gx, gy, nil, rects)
}

// StreamGradients computes the Scharr gradients of g over r, which must lie
// inside the image, and hands each row to rows instead of storing it: a
// consumer that folds the gradients into something else — the Shi–Tomasi
// detector's summed-area table — never holds a gradient image. The values are
// GradientsRectsInto's, in the same one fan-out.
//
//adavp:hotpath
func StreamGradients(g *Gray, r image.Rectangle, rows GradientRows, s *Scratch) {
	s.whole[0] = r
	s.scharr(g, nil, nil, rows, s.whole[:])
}

// scharr is the one Scharr fan-out: the bands split the row span the
// rectangles cover, and a band streams the rows of every rectangle that fall
// inside it, into gx and gy or, when rows is set, to rows.
//
//adavp:hotpath
func (s *Scratch) scharr(g, gx, gy *Gray, rows GradientRows, rects []image.Rectangle) {
	y0, y1 := g.H, 0
	for _, r := range rects {
		y0, y1 = min(y0, r.Min.Y), max(y1, r.Max.Y)
	}
	y0, y1 = max(y0, 0), min(y1, g.H)
	n := max(y1-y0, 0)
	b := &s.scharrBand
	*b = scharrBand{g: g, gx: gx, gy: gy, rows: rows, rects: rects, y0: y0,
		rings: s.reserveRings(min(par.Workers(), n), g.W), next: &s.ringNext}
	par.Rows(n, b)
	*b = scharrBand{}
}

// scharrBand is the Scharr fan-out's band: the gradient rows of every
// rectangle that fall in rows [y0+lo, y0+hi). Band i of a call works in
// rings[i], i counted by next: a band rebuilds the three horizontal-pass rows
// its first gradient row reads, halo rows included, in a ring of its own, so
// no band waits for another's rows.
type scharrBand struct {
	g, gx, gy *Gray
	rows      GradientRows
	rects     []image.Rectangle
	y0        int
	rings     []*scharrRing
	next      *atomic.Int32
}

//adavp:hotpath
func (b *scharrBand) Rows(lo, hi int) {
	g, gx, gy, rows := b.g, b.gx, b.gy, b.rows
	var rg *scharrRing
	if i := int(b.next.Add(1)) - 1; i < len(b.rings) {
		rg = b.rings[i]
	} else {
		// More bands than reserved: the worker count rose during the call.
		rg = newScharrRing(g.W)
	}
	for _, r := range b.rects {
		y0, y1 := max(r.Min.Y, b.y0+lo), min(r.Max.Y, b.y0+hi)
		if y0 >= y1 {
			continue
		}
		rg.start(g, r.Min.X, r.Max.X, y0)
		for y := y0; y < y1; y++ {
			if rows != nil {
				rg.next(rg.gx, rg.gy)
				rows.GradientRow(y, rg.gx, rg.gy)
			} else {
				rg.next(gx.Row(y), gy.Row(y))
			}
		}
	}
}

// reserveRings readies n rings at least w wide for the bands of the next
// fan-out and resets its band counter. Rings persist across calls, so a warm
// fan-out allocates none.
func (s *Scratch) reserveRings(n, w int) []*scharrRing {
	for len(s.rings) < n {
		s.rings = append(s.rings, nil)
	}
	for i, rg := range s.rings[:n] {
		if rg == nil || len(rg.gx) < w {
			s.rings[i] = newScharrRing(w)
		}
	}
	s.ringNext.Store(0)
	return s.rings[:n]
}

// scharrRing is one band's streaming state over columns [x0, x1) of g: the
// horizontal passes — difference d, smoothing s — of rows y−1, y and y+1,
// each clamped to the image, from which the vertical passes make gradient
// row y, and the row pair handed to a GradientRows receiver. Every row is
// indexed by image column.
type scharrRing struct {
	g         *Gray
	x0, x1, y int
	d, s      [3][]float32
	gx, gy    []float32
}

// newScharrRing returns a ring whose rows are w wide. It is kept out of line
// so that the compiler reports its allocation here, where it is accounted
// for, and not in each hot caller.
//
//go:noinline
func newScharrRing(w int) *scharrRing {
	buf := make([]float32, 8*w)
	rg := &scharrRing{}
	for i := range 3 {
		rg.d[i], rg.s[i] = buf[2*i*w:][:w], buf[(2*i+1)*w:][:w]
	}
	rg.gx, rg.gy = buf[6*w:][:w], buf[7*w:]
	return rg
}

// start readies rg to stream gradient rows y, y+1, … over columns [x0, x1)
// of g: the horizontal passes of rows y−1 and y.
//
//adavp:hotpath
func (rg *scharrRing) start(g *Gray, x0, x1, y int) {
	rg.g, rg.x0, rg.x1, rg.y = g, x0, x1, y
	scharrRowH(rg.d[0], rg.s[0], g, y-1, x0, x1)
	scharrRowH(rg.d[1], rg.s[1], g, y, x0, x1)
}

// next writes gradient row rg.y into columns [x0, x1) of gx and gy (rows of
// at least x1) and moves to the next row: the horizontal passes of row y+1,
// then the vertical passes, and the ring turns by one row.
//
//adavp:hotpath
func (rg *scharrRing) next(gx, gy []float32) {
	scharrRowH(rg.d[2], rg.s[2], rg.g, rg.y+1, rg.x0, rg.x1)
	scharrRowV(gx, gy, &rg.d, &rg.s, rg.x0, rg.x1)
	rg.d[0], rg.d[1], rg.d[2] = rg.d[1], rg.d[2], rg.d[0]
	rg.s[0], rg.s[1], rg.s[2] = rg.s[1], rg.s[2], rg.s[0]
	rg.y++
}

// scharrRowH writes columns [x0, x1) of the horizontal difference and
// smoothing passes of row y of g, clamped to the image, into d and s. Interior
// columns read their three pixels straight from the row; the first and last
// column clamp their outer tap, as At does.
//
//adavp:hotpath
func scharrRowH(d, s []float32, g *Gray, y, x0, x1 int) {
	row := g.Row(min(max(y, 0), g.H-1))
	w := len(row)
	iLo := min(max(x0, 1), x1)
	iHi := max(min(x1, w-1), iLo)
	for x := x0; x < iLo; x++ {
		d[x], s[x] = scharrTaps(row[max(x-1, 0)], row[x], row[min(x+1, w-1)])
	}
	for x := iLo; x < iHi; x++ {
		d[x], s[x] = scharrTaps(row[x-1], row[x], row[x+1])
	}
	for x := iHi; x < x1; x++ {
		d[x], s[x] = scharrTaps(row[max(x-1, 0)], row[x], row[min(x+1, w-1)])
	}
}

// scharrTaps is one horizontal output of both passes from the pixels left of,
// at and right of it: Convolve1DRef's accumulation from +0, tap by tap.
//
//adavp:hotpath
func scharrTaps(a, b, c float32) (diff, smooth float32) {
	return 0 + scharrD0*a + scharrD1*b + scharrD2*c, 0 + scharrS0*a + scharrS1*b + scharrS0*c
}

// scharrRowV writes columns [x0, x1) of a gradient row into gx and gy from
// the horizontal passes of the rows above, at and below it: gx smooths the
// difference pass vertically, gy differences the smoothing pass, each
// accumulating from +0 tap by tap as Convolve1DRef does.
//
//adavp:hotpath
func scharrRowV(gx, gy []float32, d, s *[3][]float32, x0, x1 int) {
	ox, oy := gx[x0:x1], gy[x0:x1]
	n := len(ox)
	d0, d1, d2 := d[0][x0:x1][:n], d[1][x0:x1][:n], d[2][x0:x1][:n]
	s0, s1, s2 := s[0][x0:x1][:n], s[1][x0:x1][:n], s[2][x0:x1][:n]
	oy = oy[:n]
	for x := range ox {
		ox[x] = 0 + scharrS0*d0[x] + scharrS1*d1[x] + scharrS0*d2[x]
		oy[x] = 0 + scharrD0*s0[x] + scharrD1*s1[x] + scharrD2*s2[x]
	}
}
