package features

import (
	"adavp/internal/geom"
	"adavp/internal/imgproc"
)

// FAST (Features from Accelerated Segment Test; Rosten & Drummond) — one of
// the alternative feature detectors the paper evaluated before settling on
// good-features-to-track (§IV-C lists SIFT, SURF, good features to track,
// FAST and ORB). FAST is dramatically cheaper than the Shi–Tomasi detector
// but its corners are less stable under the blur and deformation of real
// video; BenchmarkGFTTvsFAST quantifies the cost/quality trade the paper's
// choice reflects.
//
// A pixel p is a FAST-N corner when at least N contiguous pixels on the
// Bresenham circle of radius 3 around it are all brighter than p+t or all
// darker than p-t. The implementation uses the standard N=9 variant with a
// sum-of-absolute-differences score and 3×3 non-max suppression.

// circle16 is the radius-3 Bresenham circle, clockwise from 12 o'clock.
var circle16 = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1},
	{3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1},
	{-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}

// FASTParams configures the detector.
type FASTParams struct {
	// Threshold t on the intensity difference (pixels are in [0, 1]).
	Threshold float32
	// N is the required contiguous arc length (9 for FAST-9).
	N int
	// MaxCorners caps the output (strongest first); <= 0 means no cap.
	MaxCorners int
	// MinDistance enforces spacing between returned corners.
	MinDistance float64
}

// DefaultFASTParams mirrors the common OpenCV configuration, scaled to the
// [0,1] intensity range.
func DefaultFASTParams() FASTParams {
	return FASTParams{Threshold: 0.08, N: 9, MaxCorners: 100, MinDistance: 7}
}

// DetectFAST finds FAST corners in img, restricted to the mask rectangles
// when masks is non-empty. Corners are returned strongest first.
func DetectFAST(img *imgproc.Gray, masks []geom.Rect, p FASTParams) []Feature {
	if img.W < 8 || img.H < 8 {
		return nil
	}
	if p.N < 1 || p.N > 16 {
		p.N = 9
	}
	if p.Threshold <= 0 {
		p.Threshold = 0.08
	}
	// The circle reaches three pixels out, so the border is three wide.
	var s Scratch
	s.maskRects(masks, img.W, img.H, 3)
	if len(s.rects) == 0 {
		return nil
	}
	y0, y1 := rowRange(s.rects)

	// Score map for non-max suppression: 0 for non-corners and outside the
	// masks.
	score := imgproc.NewGray(img.W, img.H)
	for y := y0; y < y1; y++ {
		row := score.Row(y)
		for _, sp := range rowSpans(s.spans, s.rects, y) {
			for x := sp.x0; x < sp.x1; x++ {
				row[x] = fastScore(img, x, y, p.Threshold, p.N)
			}
		}
	}
	for y := y0; y < y1; y++ {
		row := score.Row(y)
		for _, sp := range rowSpans(s.spans, s.rects, y) {
			for x := sp.x0; x < sp.x1; x++ {
				if v := row[x]; v > 0 && isLocalMax(score, x, y, v) {
					s.cands = append(s.cands, Feature{Pt: geom.Point{X: float64(x), Y: float64(y)}, Score: float64(v)})
				}
			}
		}
	}
	return s.strongest(s.cands, p.MinDistance, p.MaxCorners, img.W, img.H)
}

// fastScore runs the segment test at (x, y) and returns the corner score
// (sum of |difference| over the qualifying arc), or 0 for a non-corner.
func fastScore(img *imgproc.Gray, x, y int, t float32, n int) float32 {
	w := img.W
	p := img.Pix[y*w+x]
	hi := p + t
	lo := p - t

	// Quick rejection using the four compass points (standard FAST trick).
	// Any contiguous arc of length n spanning the 16-pixel circle must
	// include at least ceil((n-3)/4) of the compass points (they are spaced
	// four apart): 3 of 4 for n >= 12, 2 of 4 for n >= 9.
	if n >= 9 {
		need := 2
		if n >= 12 {
			need = 3
		}
		brighter, darker := 0, 0
		for _, i := range [4]int{0, 4, 8, 12} {
			v := img.Pix[(y+circle16[i][1])*w+(x+circle16[i][0])]
			if v > hi {
				brighter++
			} else if v < lo {
				darker++
			}
		}
		if brighter < need && darker < need {
			return 0
		}
	}

	// Classify the full circle: +1 brighter, -1 darker, 0 similar.
	var cls [16]int8
	var diff [16]float32
	for i, off := range circle16 {
		v := img.Pix[(y+off[1])*w+(x+off[0])]
		switch {
		case v > hi:
			cls[i] = 1
			diff[i] = v - p
		case v < lo:
			cls[i] = -1
			diff[i] = p - v
		}
	}
	// Longest contiguous run (wrapping) of all-brighter or all-darker.
	best := float32(0)
	for _, want := range [2]int8{1, -1} {
		run := 0
		var sum float32
		// Walk twice around the circle to handle wrap-around runs.
		for i := 0; i < 32; i++ {
			idx := i % 16
			if cls[idx] == want {
				run++
				sum += diff[idx]
				if run >= n && sum > best {
					best = sum
				}
			} else {
				run = 0
				sum = 0
			}
			if run >= 16 {
				break // full circle
			}
		}
	}
	return best
}
