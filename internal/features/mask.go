package features

import (
	"image"
	"math"

	"adavp/internal/geom"
)

// The detector restricts extraction to mask rectangles (§V: the detected
// boxes): each mask becomes once the integer pixel rectangle its Contains
// test accepts, and a row of the frame is then visited as the merged runs of
// those rectangles — so the cost follows the mask area, and the pixels still
// arrive in the row-major order of a whole-frame scan filtered by Contains.

// border is the width of the frame edge the detector never reports a feature
// in: gradients there are clamped.
const border = 1

// maskRects sets s.rects to, for every mask, the rectangle of the pixels
// (x, y) with border ≤ x < w−border and border ≤ y < h−border whose center
// mask.Contains accepts; masks without such a pixel add nothing. No masks at
// all means no restriction: the whole interior. It also gives s.spans room
// for a row of them.
func (s *Scratch) maskRects(masks []geom.Rect, w, h int) {
	s.rects = s.rects[:0]
	if len(masks) == 0 {
		s.rects = append(s.rects, image.Rect(border, border, w-border, h-border))
	}
	for _, m := range masks {
		x0, x1 := pixelSpan(m.Left, m.Right(), border, w-border)
		y0, y1 := pixelSpan(m.Top, m.Bottom(), border, h-border)
		if x0 < x1 && y0 < y1 {
			s.rects = append(s.rects, image.Rect(x0, y0, x1, y1))
		}
	}
	s.spans = ensureLen(s.spans, len(s.rects))
}

// pixelSpan returns as [x0, x1) the integers x in [lo, hi) with a ≤ x and
// x < b — one axis of Rect.Contains at a pixel center. For an integer x,
// a ≤ x is ⌈a⌉ ≤ x and x < b is x < ⌈b⌉. A NaN bound fails every comparison
// Contains makes, so the span is empty.
func pixelSpan(a, b float64, lo, hi int) (x0, x1 int) {
	if !(a < b) {
		return lo, lo
	}
	return clampCeil(a, lo, hi), clampCeil(b, lo, hi)
}

// clampCeil is ⌈v⌉ clamped to [lo, hi]. The clamp happens in float64, so ±Inf
// and values beyond the int range never reach the conversion.
func clampCeil(v float64, lo, hi int) int {
	c := math.Ceil(v)
	if c <= float64(lo) {
		return lo
	}
	if c >= float64(hi) {
		return hi
	}
	return int(c)
}

// rowRange returns the rows [y0, y1) that rects (non-empty) cover between them.
func rowRange(rects []image.Rectangle) (y0, y1 int) {
	y0, y1 = rects[0].Min.Y, rects[0].Max.Y
	for _, r := range rects[1:] {
		y0, y1 = min(y0, r.Min.Y), max(y1, r.Max.Y)
	}
	return y0, y1
}

// span is the run of pixels [x0, x1) of one row.
type span struct{ x0, x1 int }

// rowSpans overwrites buf (capacity ≥ len(rects)) with the pixels of row y
// that lie in some rectangle, as disjoint runs in increasing x. The runs are
// inserted in place, at most one per rectangle, and then merged: no sort call
// and no closure, because this runs once per mask row per frame.
func rowSpans(buf []span, rects []image.Rectangle, y int) []span {
	buf = buf[:0]
	for _, r := range rects {
		if y < r.Min.Y || y >= r.Max.Y {
			continue
		}
		i := len(buf)
		buf = buf[:i+1]
		for ; i > 0 && buf[i-1].x0 > r.Min.X; i-- {
			buf[i] = buf[i-1]
		}
		buf[i] = span{r.Min.X, r.Max.X}
	}
	n := 0
	for _, sp := range buf {
		if n > 0 && sp.x0 <= buf[n-1].x1 {
			buf[n-1].x1 = max(buf[n-1].x1, sp.x1)
		} else {
			buf[n] = sp
			n++
		}
	}
	return buf[:n]
}
