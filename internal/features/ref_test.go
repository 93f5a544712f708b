package features

import (
	"math"
	"sort"

	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/par"
)

// The Shi–Tomasi detector as it stood before Scratch, kept verbatim as the
// reference the parity tests compare (*Scratch).Detect against: whole-frame
// gradients, three product images, three summed-area tables, a whole-frame
// score map, and masks applied as a per-pixel filter. Only the names changed
// (scoreMapRef, detectRef, enforceMinDistanceRef); isLocalMax is the
// package's own, which both forms share. It must stay unoptimized.

// scoreMapRef computes the per-pixel minimum-eigenvalue response of the
// structure tensor with the given block size. Exposed for tests and for the
// content-analysis tooling.
func scoreMapRef(img *imgproc.Gray, blockSize int) *imgproc.Gray {
	if blockSize < 1 {
		blockSize = 3
	}
	if blockSize%2 == 0 {
		blockSize++
	}
	gx, gy := imgproc.Gradients(img)
	w, h := img.W, img.H
	// Gradient products.
	xx := imgproc.NewGray(w, h)
	xy := imgproc.NewGray(w, h)
	yy := imgproc.NewGray(w, h)
	par.Rows(len(gx.Pix), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x := gx.Pix[i]
			y := gy.Pix[i]
			xx.Pix[i] = x * x
			xy.Pix[i] = x * y
			yy.Pix[i] = y * y
		}
	})
	// Window sums via integral images: O(1) per pixel.
	ixx := imgproc.NewIntegral(xx)
	ixy := imgproc.NewIntegral(xy)
	iyy := imgproc.NewIntegral(yy)
	r := blockSize / 2
	out := imgproc.NewGray(w, h)
	par.Rows(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			row := out.Row(y)
			for x := 0; x < w; x++ {
				a := ixx.BoxSum(x-r, y-r, x+r+1, y+r+1)
				b := ixy.BoxSum(x-r, y-r, x+r+1, y+r+1)
				c := iyy.BoxSum(x-r, y-r, x+r+1, y+r+1)
				// Minimum eigenvalue of [a b; b c].
				t := (a + c) / 2
				d := math.Sqrt(((a-c)/2)*((a-c)/2) + b*b)
				row[x] = float32(t - d)
			}
		}
	})
	return out
}

// detectRef finds good features in img. If masks is non-empty, only pixels whose
// centers fall inside at least one mask rectangle are considered — this is
// how AdaVP limits extraction to YOLO-detected bounding boxes. Features are
// returned strongest first.
func detectRef(img *imgproc.Gray, masks []geom.Rect, p Params) []Feature {
	if img.W < 3 || img.H < 3 {
		return nil
	}
	score := scoreMapRef(img, p.BlockSize)
	inMask := func(x, y int) bool {
		if len(masks) == 0 {
			return true
		}
		pt := geom.Point{X: float64(x), Y: float64(y)}
		for _, m := range masks {
			if m.Contains(pt) {
				return true
			}
		}
		return false
	}

	// Find the maximum response inside the mask to anchor the quality
	// threshold, matching OpenCV semantics (threshold relative to the best
	// corner in the searched region).
	var maxScore float32
	for y := 1; y < img.H-1; y++ {
		for x := 1; x < img.W-1; x++ {
			if s := score.Pix[y*img.W+x]; s > maxScore && inMask(x, y) {
				maxScore = s
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

	// Collect local maxima above threshold (3×3 non-max suppression), border
	// excluded because gradients there are clamped.
	var cands []Feature
	for y := 1; y < img.H-1; y++ {
		for x := 1; x < img.W-1; x++ {
			s := score.Pix[y*img.W+x]
			if s < threshold || !inMask(x, y) {
				continue
			}
			if !isLocalMax(score, x, y, s) {
				continue
			}
			cands = append(cands, Feature{Pt: geom.Point{X: float64(x), Y: float64(y)}, Score: float64(s)})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Score > cands[j].Score })

	// Greedy min-distance enforcement on a coarse grid for O(n) rejection.
	if p.MinDistance > 0 {
		cands = enforceMinDistanceRef(cands, p.MinDistance)
	}
	if p.MaxCorners > 0 && len(cands) > p.MaxCorners {
		cands = cands[:p.MaxCorners]
	}
	return cands
}

// enforceMinDistanceRef keeps the strongest features such that no two are
// closer than minDist, using a bucket grid with cell size minDist.
func enforceMinDistanceRef(sorted []Feature, minDist float64) []Feature {
	type cell struct{ cx, cy int }
	grid := make(map[cell][]geom.Point)
	cellOf := func(pt geom.Point) cell {
		return cell{int(pt.X / minDist), int(pt.Y / minDist)}
	}
	minDistSq := minDist * minDist
	out := sorted[:0:0]
	for _, f := range sorted {
		c := cellOf(f.Pt)
		ok := true
	neighbors:
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				for _, q := range grid[cell{c.cx + dx, c.cy + dy}] {
					d := f.Pt.Sub(q)
					if d.X*d.X+d.Y*d.Y < minDistSq {
						ok = false
						break neighbors
					}
				}
			}
		}
		if ok {
			out = append(out, f)
			grid[c] = append(grid[c], f.Pt)
		}
	}
	return out
}
