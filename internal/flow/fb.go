package flow

import (
	"adavp/internal/geom"
	"adavp/internal/imgproc"
)

// Forward-backward verification (Kalal et al.'s tracking-failure detector,
// used by production LK trackers): track each point forward, track the
// result backward, and reject points whose round trip does not return to the
// start. It catches exactly the silent failures that plain residual checks
// miss — a point that slid onto a different, equally-textured surface tracks
// "well" in both directions but not back to itself.

// FBResult extends Result with the round-trip error.
type FBResult struct {
	Result
	// FBError is the distance between the original point and its
	// forward-then-backward image. Meaningful only when the forward pass
	// succeeded.
	FBError float64
}

// TrackFB runs forward and backward Lucas–Kanade and rejects points whose
// round-trip error exceeds maxFBError (<= 0 selects the conventional 1.0
// pixel). It costs roughly twice a plain Track call.
func (s *Scratch) TrackFB(prev, next *imgproc.Pyramid, pts []geom.Point, p Params, maxFBError float64) []FBResult {
	if maxFBError <= 0 {
		maxFBError = 1.0
	}
	forward := s.Track(prev, next, pts, p)

	// Backward pass only for points whose forward pass succeeded.
	backPts := make([]geom.Point, 0, len(pts))
	backIdx := make([]int, 0, len(pts))
	for i, r := range forward {
		if r.OK {
			backPts = append(backPts, r.Pt)
			backIdx = append(backIdx, i)
		}
	}
	backward := s.Track(next, prev, backPts, p)

	out := make([]FBResult, len(pts))
	for i, r := range forward {
		out[i] = FBResult{Result: r, FBError: -1}
	}
	for bi, br := range backward {
		i := backIdx[bi]
		if !br.OK {
			out[i].OK = false
			continue
		}
		fb := br.Pt.Dist(pts[i])
		out[i].FBError = fb
		if fb > maxFBError {
			out[i].OK = false
		}
	}
	return out
}
