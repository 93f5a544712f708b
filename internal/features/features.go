// Package features implements the Shi–Tomasi "good features to track"
// detector (Shi & Tomasi, 1993) that AdaVP uses to seed its optical-flow
// object tracker.
//
// A pixel is a good feature when the minimum eigenvalue of its local
// structure tensor
//
//	M = Σ_w [Ix² IxIy; IxIy Iy²]
//
// is large: both eigenvalues large means the neighborhood has gradient
// energy in two independent directions, so its motion is fully observable
// (no aperture problem). The implementation mirrors OpenCV's
// goodFeaturesToTrack: score map, quality-relative threshold, 3×3 non-max
// suppression, and greedy minimum-distance enforcement — plus the bounding
// box masks that AdaVP uses to restrict extraction to detected objects (§V).
package features

import (
	"image"
	"math"
	"sort"

	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/par"
)

// Params configures feature detection. The zero value is not useful; use
// DefaultParams as a starting point.
type Params struct {
	// MaxCorners caps the number of returned features (strongest first).
	// Zero or negative means no cap.
	MaxCorners int
	// Quality is the fraction of the strongest corner's score below which
	// candidates are rejected (OpenCV's qualityLevel). Typical: 0.01–0.1.
	Quality float64
	// MinDistance is the minimum Euclidean distance in pixels between two
	// returned features.
	MinDistance float64
	// BlockSize is the side of the square window the structure tensor is
	// accumulated over. Must be odd; typical: 3.
	BlockSize int
}

// DefaultParams matches the OpenCV defaults the paper's implementation uses.
func DefaultParams() Params {
	return Params{MaxCorners: 100, Quality: 0.01, MinDistance: 7, BlockSize: 3}
}

// Feature is a detected corner with its Shi–Tomasi score.
type Feature struct {
	Pt    geom.Point
	Score float64
}

// Scratch holds the buffers of the Shi–Tomasi detector, as flow.Scratch holds
// the Lucas–Kanade solver's: the band-local rows of the streamed gradients,
// the summed-area table of their products at the columns the window sums
// read, the score map, and the mask, candidate and spacing lists. Every
// buffer grows to what a call uses and is then reused, so a caller that keeps
// one Scratch — the pixel tracker — allocates per call only the features it is
// handed (plus the fixed words of sort.Slice): the par.Rows fan-outs' bands
// are fields of the Scratch too.
// Buffers are never cleared between calls: each call reads only what it wrote.
// A Scratch belongs to one pipeline stage and is not safe for concurrent use;
// the zero value is ready.
type Scratch struct {
	// img holds the streamed gradients' rings; no gradient image is stored.
	img imgproc.Scratch
	// tab is the summed-area table of gx², gx·gy and gy² over the prefix
	// region, kept at the table columns a window sum reads and nowhere else:
	// cols maps such a column c to its place k among them, and cell (c, y) is
	// tab[3·(y·K+k):][:3] for K kept columns, the three channels interleaved
	// so that a window sum reads 4 places, not 12. runs lists the kept
	// columns as maximal runs.
	tab  []float64
	cols []int32
	runs []span
	// score is prefix-sized and valid inside the last scored rectangles only.
	score *imgproc.Gray

	rects, grown []image.Rectangle // mask pixel rectangles; the same grown by one pixel
	spans        []span            // rowSpans' buffer
	cands, kept  []Feature
	// cell and next chain the kept features of each spacing-grid cell: cell
	// holds 1 + the index in kept of the cell's newest feature (0 = empty),
	// next the same for the feature kept before it in that cell.
	cell, next []int32

	// The receiver of the streamed gradient rows, and the bands of the
	// table's column pass and of the score pass.
	keptRows  keptRows
	keptCols  keptCols
	scoreBand scoreBand
}

// Detect finds good features in img. If masks is non-empty, only pixels whose
// centers fall inside at least one mask rectangle are considered — this is
// how AdaVP limits extraction to YOLO-detected bounding boxes. Features are
// returned strongest first. It is a convenience wrapper over Scratch.Detect
// with throwaway buffers.
func Detect(img *imgproc.Gray, masks []geom.Rect, p Params) []Feature {
	var s Scratch
	return s.Detect(img, masks, p)
}

// Detect is the buffer-reusing form of the package-level Detect, and the one
// body behind it. The work follows the masks as far as identical bits allow:
// the score is evaluated only on the mask rectangles (and the one-pixel ring
// around them that non-max suppression reads), the quality maximum and the
// candidates are taken over mask pixels only, and the gradients and their
// summed-area table stop at the last row and column a mask window reaches —
// see scoreRects for why they cannot start later — while the table keeps
// only the columns the windows read. Candidates are met in the
// row-major order of a whole-frame scan, so the unstable sort that follows
// sees the sequence it always saw and equal scores resolve the same way.
//
//adavp:hotpath
func (s *Scratch) Detect(img *imgproc.Gray, masks []geom.Rect, p Params) []Feature {
	if img.W < 3 || img.H < 3 {
		return nil
	}
	s.maskRects(masks, img.W, img.H)
	if len(s.rects) == 0 {
		return nil
	}
	s.grown = s.grown[:0]
	for _, r := range s.rects {
		s.grown = append(s.grown, r.Inset(-1))
	}
	s.scoreRects(img, p.BlockSize, s.grown)
	score := s.score
	y0, y1 := rowRange(s.rects)

	// Find the maximum response inside the mask to anchor the quality
	// threshold, matching OpenCV semantics (threshold relative to the best
	// corner in the searched region).
	var maxScore float32
	for y := y0; y < y1; y++ {
		row := score.Row(y)
		for _, sp := range rowSpans(s.spans, s.rects, y) {
			for _, v := range row[sp.x0:sp.x1] {
				if v > maxScore {
					maxScore = v
				}
			}
		}
	}
	if maxScore <= 0 {
		return nil
	}
	quality := p.Quality
	if quality <= 0 {
		quality = 0.01
	}
	threshold := float32(quality) * maxScore

	// Collect local maxima above threshold (3×3 non-max suppression).
	s.cands = s.cands[:0]
	for y := y0; y < y1; y++ {
		row := score.Row(y)
		for _, sp := range rowSpans(s.spans, s.rects, y) {
			for x := sp.x0; x < sp.x1; x++ {
				// Not v >= threshold: a NaN response passes, as it always did.
				if v := row[x]; !(v < threshold) && isLocalMax(score, x, y, v) {
					s.cands = append(s.cands, Feature{Pt: geom.Point{X: float64(x), Y: float64(y)}, Score: float64(v)})
				}
			}
		}
	}
	return s.strongest(s.cands, p.MinDistance, p.MaxCorners, img.W, img.H)
}

// scoreRects writes into s.score the minimum-eigenvalue response at every
// pixel of rects (non-empty, inside the image, overlaps allowed), each value
// bitwise what the whole-frame pass gives it.
//
// A response is three window sums, each read off a summed-area table whose
// cell (x, y) is the float64 sum of everything above and to the left, added
// in one fixed order. That prefix dependency is the limit of where the table
// can start with identical bits: a table started at a box's corner would add
// the same products in a different association. So the gradients and the
// table's rows cover the prefix region [0, X+r) × [0, Y+r) — X and Y the
// largest Max.X and Max.Y of rects, r = blockSize/2: up to the last column
// and row a window of rects reads — and nothing beyond it. Which columns the
// table keeps is free, because each column's vertical sum is its own: it
// keeps the ones the windows read, x−r and x+r+1 clamped to the image for
// every column x of rects. The gradients are never stored: the Scharr
// fan-out hands each row to keptRows, which folds it into the row-prefix
// sums. Everything else is confined to rects.
//
//adavp:hotpath
func (s *Scratch) scoreRects(img *imgproc.Gray, blockSize int, rects []image.Rectangle) {
	if blockSize < 1 {
		blockSize = 3
	}
	if blockSize%2 == 0 {
		blockSize++
	}
	w, h := img.W, img.H
	// Window sums clip to the image, so a radius past it changes nothing.
	r := min(blockSize/2, max(w, h))
	pw, ph := 0, 0
	for _, rc := range rects {
		pw, ph = max(pw, rc.Max.X), max(ph, rc.Max.Y)
	}
	pw, ph = min(pw+r, w), min(ph+r, h)

	k := s.keepColumns(rects, r, w, pw)
	stride := 3 * k
	s.tab = ensureLen(s.tab, stride*(ph+1))
	// Row 0 is zero by definition.
	clear(s.tab[:stride])
	kr, kc := &s.keptRows, &s.keptCols
	*kr = keptRows{tab: s.tab, runs: s.runs, stride: stride}
	imgproc.StreamGradients(img, image.Rect(0, 0, pw, ph), kr, &s.img)
	*kr = keptRows{}
	*kc = keptCols{tab: s.tab, ph: ph, stride: stride}
	par.Rows(k, kc)
	*kc = keptCols{}

	s.score = ensureGray(s.score, pw, ph)
	y0, y1 := rowRange(rects)
	// The bands split the row span the rectangles cover, and a band works
	// the rows of every rectangle that fall inside it (the Scharr fan-out's
	// shape): one fan-out however many masks there are; overlaps only repeat
	// work.
	b := &s.scoreBand
	*b = scoreBand{score: s.score, tab: s.tab, cols: s.cols, rects: rects, stride: stride, r: r, w: w, h: h, y0: y0}
	par.Rows(y1-y0, b)
	*b = scoreBand{}
}

// scoreBand is scoreRects' band: the responses of every rectangle's rows in
// [y0+lo, y0+hi), read off the table of a w×h image with window radius r.
type scoreBand struct {
	score               *imgproc.Gray
	tab                 []float64
	cols                []int32
	rects               []image.Rectangle
	stride, r, w, h, y0 int
}

//adavp:hotpath
func (sb *scoreBand) Rows(lo, hi int) {
	score, tab, cols, rects, stride, r, w, h, y0 := sb.score, sb.tab, sb.cols, sb.rects, sb.stride, sb.r, sb.w, sb.h, sb.y0
	for _, rc := range rects {
		for y := max(rc.Min.Y, y0+lo); y < min(rc.Max.Y, y0+hi); y++ {
			top := tab[max(y-r, 0)*stride:]
			bot := tab[min(y+r+1, h)*stride:]
			out := score.Row(y)
			for x := rc.Min.X; x < rc.Max.X; x++ {
				// Integral.BoxSum's four reads, in its order, per channel.
				x0, x1 := 3*int(cols[max(x-r, 0)]), 3*int(cols[min(x+r+1, w)])
				a := bot[x1] - top[x1] - bot[x0] + top[x0]
				b := bot[x1+1] - top[x1+1] - bot[x0+1] + top[x0+1]
				c := bot[x1+2] - top[x1+2] - bot[x0+2] + top[x0+2]
				// Minimum eigenvalue of [a b; b c].
				t := (a + c) / 2
				d := math.Sqrt(((a-c)/2)*((a-c)/2) + b*b)
				out[x] = float32(t - d)
			}
		}
	}
}

// keepColumns sets s.cols and s.runs to the table columns in [0, pw] that the
// window sums of rects read, for window radius r in an image w wide, and
// returns how many there are.
//
//adavp:hotpath
func (s *Scratch) keepColumns(rects []image.Rectangle, r, w, pw int) int {
	s.cols = ensureLen(s.cols, pw+1)
	for c := range s.cols {
		s.cols[c] = -1
	}
	for _, rc := range rects {
		if rc.Empty() {
			continue
		}
		// A window at column x reads columns max(x−r, 0) and min(x+r+1, w).
		for c := max(rc.Min.X-r, 0); c <= max(rc.Max.X-1-r, 0); c++ {
			s.cols[c] = 0
		}
		for c := min(rc.Min.X+r+1, w); c <= min(rc.Max.X+r, w); c++ {
			s.cols[c] = 0
		}
	}
	s.runs = s.runs[:0]
	k := int32(0)
	for c, v := range s.cols {
		if v < 0 {
			continue
		}
		s.cols[c] = k
		k++
		if n := len(s.runs); n > 0 && s.runs[n-1].x1 == c {
			s.runs[n-1].x1++
		} else {
			s.runs = append(s.runs, span{c, c + 1})
		}
	}
	return int(k)
}

// keptRows receives the gradient rows of the prefix region and writes each
// row's running sums of the three products into its table row, at the kept
// columns only. The sums are imgproc.Integral.Rebuild's row pass over the
// product images gx², gx·gy and gy², without the product images: each
// product is rounded to float32 — what storing it in a Gray did; the explicit
// conversion also forbids fusing the multiply into the add — and accumulated
// along the row in x order, up to the last kept column.
type keptRows struct {
	tab    []float64
	runs   []span
	stride int
}

//adavp:hotpath
func (b *keptRows) GradientRow(y int, gx, gy []float32) {
	dst := b.tab[(y+1)*b.stride : (y+2)*b.stride]
	var xx, xy, yy float64
	x, k := 0, 0
	for _, run := range b.runs {
		for c := run.x0; c < run.x1; c++ {
			// Table column c holds the sums over [0, c).
			for ; x < c; x++ {
				dx, dy := gx[x], gy[x]
				xx += float64(float32(dx * dx))
				xy += float64(float32(dx * dy))
				yy += float64(float32(dy * dy))
			}
			dst[k], dst[k+1], dst[k+2] = xx, xy, yy
			k += 3
		}
	}
}

// keptCols is the table's column pass: the accumulation down each of a band
// of kept columns in y order, Integral.Rebuild's second pass. With the row
// pass, every kept cell holds the bits of the whole-frame table's cell, at
// any worker count.
type keptCols struct {
	tab        []float64
	ph, stride int
}

//adavp:hotpath
func (b *keptCols) Rows(lo, hi int) {
	tab, ph, stride := b.tab, b.ph, b.stride
	for y := 1; y <= ph; y++ {
		above := tab[(y-1)*stride:]
		row := tab[y*stride:]
		for i := 3 * lo; i < 3*hi; i++ {
			row[i] = above[i] + row[i]
		}
	}
}

// isLocalMax reports whether (x, y) is a strict-or-equal maximum of its 3×3
// neighborhood. Ties break toward the top-left pixel so plateaus yield one
// feature instead of a cluster.
func isLocalMax(score *imgproc.Gray, x, y int, s float32) bool {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			n := score.At(x+dx, y+dy)
			if n > s {
				return false
			}
			if n == s && (dy < 0 || (dy == 0 && dx < 0)) {
				return false
			}
		}
	}
	return true
}

// strongest orders cands (features at integer pixels of a w×h image, reordered
// in place) strongest first, drops every feature closer than minDist to a
// stronger one that stays, and returns at most maxCorners of the rest
// (≤ 0: all) in a slice of their own, nil when there are none.
//
// The sort is unstable, so the order candidates arrive in is part of the
// result; it and the returned slice are what a warm call allocates (the boxed
// slice header, reflect's swapper). The spacing is greedy, which lets it stop
// at maxCorners, and looks for the stronger neighbors in a grid of cells at
// least minDist wide: a feature within minDist lies at most one cell away on
// either axis.
func (s *Scratch) strongest(cands []Feature, minDist float64, maxCorners, w, h int) []Feature {
	sort.Slice(cands, func(i, j int) bool { return cands[i].Score > cands[j].Score })
	if maxCorners <= 0 {
		maxCorners = len(cands)
	}
	kept := cands[:min(maxCorners, len(cands))]
	if minDist > 0 {
		side := int(math.Ceil(min(minDist, float64(max(w, h)))))
		gw, gh := (w-1)/side+1, (h-1)/side+1
		s.cell = ensureLen(s.cell, gw*gh)
		clear(s.cell)
		s.next = s.next[:0]
		kept = s.kept[:0]
		minDistSq := minDist * minDist
	candidates:
		for _, f := range cands {
			if len(kept) == maxCorners {
				break
			}
			cx, cy := int(f.Pt.X)/side, int(f.Pt.Y)/side
			for ny := max(cy-1, 0); ny <= min(cy+1, gh-1); ny++ {
				for nx := max(cx-1, 0); nx <= min(cx+1, gw-1); nx++ {
					for k := s.cell[ny*gw+nx]; k != 0; k = s.next[k-1] {
						if d := f.Pt.Sub(kept[k-1].Pt); d.X*d.X+d.Y*d.Y < minDistSq {
							continue candidates
						}
					}
				}
			}
			kept = append(kept, f)
			s.next = append(s.next, s.cell[cy*gw+cx])
			s.cell[cy*gw+cx] = int32(len(kept))
		}
		s.kept = kept
	}
	if len(kept) == 0 {
		return nil
	}
	out := make([]Feature, len(kept)) // returned: the caller owns the results
	copy(out, kept)
	return out
}

// ensureGray returns g resized to w×h with undefined contents, reusing its
// backing array when possible.
func ensureGray(g *imgproc.Gray, w, h int) *imgproc.Gray {
	if g == nil || cap(g.Pix) < w*h {
		return imgproc.NewGray(w, h)
	}
	g.W, g.H = w, h
	g.Pix = g.Pix[:w*h]
	return g
}

// ensureLen returns b resized to n elements with undefined contents. It is
// kept out of line so that the compiler reports its make here, where the
// growth is accounted for, and not inside each hot caller.
//
//go:noinline
func ensureLen[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
