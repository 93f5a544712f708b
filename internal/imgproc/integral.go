package imgproc

import "adavp/internal/par"

// Integral is a summed-area table: Sum[y][x] holds the sum of all pixels in
// the rectangle [0,x) × [0,y) of the source image. It answers arbitrary
// box-sum queries in O(1) and backs the blob detector's region statistics.
type Integral struct {
	W, H int       // dimensions of the source image
	sum  []float64 // (W+1)*(H+1) table

	// The bands of Rebuild's two passes.
	rows integralRows
	cols integralCols
}

// NewIntegral builds the summed-area table for g.
func NewIntegral(g *Gray) *Integral {
	it := &Integral{}
	it.Rebuild(g)
	return it
}

// Rebuild recomputes the table for g in place, reusing the backing array
// when it is large enough.
//
// The build runs in two banded-parallel passes that perform the exact
// floating-point additions of the serial reference in the exact order:
// pass 1 writes each row's running prefix sum (rows are independent), and
// pass 2 accumulates down each column in increasing y (columns are
// independent). Every cell's value is the column-order sum of row prefixes,
// which is precisely the serial recurrence sum[y+1][x+1] = sum[y][x+1] +
// rowSum — so the table is bitwise-identical at any worker count.
//
//adavp:hotpath
func (it *Integral) Rebuild(g *Gray) {
	w, h := g.W, g.H
	it.W, it.H = w, h
	need := (w + 1) * (h + 1)
	if cap(it.sum) >= need {
		it.sum = it.sum[:need]
	} else {
		it.sum = make([]float64, need)
	}
	stride := w + 1
	// Row 0 and column 0 are zero by definition.
	for i := 0; i < stride; i++ {
		it.sum[i] = 0
	}
	// Pass 1: per-row prefix sums into rows 1..h of the table.
	br, bc := &it.rows, &it.cols
	*br = integralRows{g: g, sum: it.sum}
	par.Rows(h, br)
	*br = integralRows{}
	// Pass 2: column-wise accumulation, parallel over column bands.
	*bc = integralCols{sum: it.sum, w: w, h: h}
	par.Rows(w, bc)
	*bc = integralCols{}
}

// integralRows is Rebuild's first pass: each row's running prefix sum.
type integralRows struct {
	g   *Gray
	sum []float64
}

//adavp:hotpath
func (b *integralRows) Rows(lo, hi int) {
	g, sum := b.g, b.sum
	w := g.W
	stride := w + 1
	for y := lo; y < hi; y++ {
		src := g.Row(y)
		dst := sum[(y+1)*stride : (y+2)*stride]
		dst[0] = 0
		var rowSum float64
		for x := 0; x < w; x++ {
			rowSum += float64(src[x])
			dst[x+1] = rowSum
		}
	}
}

// integralCols is Rebuild's second pass: the accumulation down each column
// of a band of columns.
type integralCols struct {
	sum  []float64
	w, h int
}

//adavp:hotpath
func (b *integralCols) Rows(lo, hi int) {
	sum, h := b.sum, b.h
	stride := b.w + 1
	for y := 1; y <= h; y++ {
		above := sum[(y-1)*stride:]
		row := sum[y*stride:]
		for x := lo + 1; x <= hi; x++ {
			row[x] = above[x] + row[x]
		}
	}
}

// clampInt clamps v to [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BoxSum returns the sum of pixels in the half-open rectangle
// [x0,x1) × [y0,y1), clipped to the image.
func (it *Integral) BoxSum(x0, y0, x1, y1 int) float64 {
	x0 = clampInt(x0, 0, it.W)
	x1 = clampInt(x1, 0, it.W)
	y0 = clampInt(y0, 0, it.H)
	y1 = clampInt(y1, 0, it.H)
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	stride := it.W + 1
	return it.sum[y1*stride+x1] - it.sum[y0*stride+x1] - it.sum[y1*stride+x0] + it.sum[y0*stride+x0]
}

// BoxMean returns the mean pixel value over the half-open rectangle
// [x0,x1) × [y0,y1), clipped to the image. An empty region yields 0.
func (it *Integral) BoxMean(x0, y0, x1, y1 int) float64 {
	x0c := clampInt(x0, 0, it.W)
	x1c := clampInt(x1, 0, it.W)
	y0c := clampInt(y0, 0, it.H)
	y1c := clampInt(y1, 0, it.H)
	area := (x1c - x0c) * (y1c - y0c)
	if area <= 0 {
		return 0
	}
	return it.BoxSum(x0, y0, x1, y1) / float64(area)
}
