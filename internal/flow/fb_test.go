package flow

import (
	"math"
	"testing"

	"adavp/internal/geom"
	"adavp/internal/imgproc"
)

// fbScratch is the one Scratch the forward-backward tests share across their
// frame sizes and point sets, as track.PixelTracker keeps one across frames;
// trackFB checks every call on it against a fresh Scratch.
var fbScratch Scratch

// trackFB runs fbScratch.TrackFB and fails unless a fresh Scratch returns
// bitwise the same results.
func trackFB(t testing.TB, prev, next *imgproc.Pyramid, pts []geom.Point, p Params, maxFBError float64) []FBResult {
	t.Helper()
	got := fbScratch.TrackFB(prev, next, pts, p, maxFBError)
	var fresh Scratch
	requireSameFBResults(t, "reused Scratch", fresh.TrackFB(prev, next, pts, p, maxFBError), got)
	return got
}

// requireSameFBResults fails unless got is ref bitwise: OK, FBError, Pt and
// Residual of every point.
func requireSameFBResults(t testing.TB, name string, ref, got []FBResult) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d results vs %d", name, len(got), len(ref))
	}
	for i := range ref {
		if ref[i].OK != got[i].OK ||
			math.Float64bits(ref[i].FBError) != math.Float64bits(got[i].FBError) ||
			math.Float64bits(ref[i].Pt.X) != math.Float64bits(got[i].Pt.X) ||
			math.Float64bits(ref[i].Pt.Y) != math.Float64bits(got[i].Pt.Y) ||
			math.Float64bits(ref[i].Residual) != math.Float64bits(got[i].Residual) {
			t.Fatalf("%s: point %d: %+v, reference %+v", name, i, got[i], ref[i])
		}
	}
}

func TestTrackFBAcceptsCleanTranslation(t *testing.T) {
	img := texturedImage(128, 96, 31)
	next := translate(img, 2.5, -1.5)
	pts := []geom.Point{{X: 40, Y: 40}, {X: 64, Y: 48}, {X: 90, Y: 60}}
	res := trackFB(t, pyr(img), pyr(next), pts, DefaultParams(), 1.0)
	if len(res) != len(pts) {
		t.Fatalf("%d results", len(res))
	}
	for i, r := range res {
		if !r.OK {
			t.Fatalf("point %d rejected on clean translation (fb=%.3f)", i, r.FBError)
		}
		if r.FBError < 0 || r.FBError > 1 {
			t.Errorf("point %d FB error %.3f", i, r.FBError)
		}
		d := r.Pt.Sub(pts[i])
		if math.Abs(d.X-2.5) > 0.2 || math.Abs(d.Y+1.5) > 0.2 {
			t.Errorf("point %d flow (%.2f, %.2f)", i, d.X, d.Y)
		}
	}
}

func TestTrackFBRejectsOcclusion(t *testing.T) {
	// The tracked point's neighborhood is overwritten in the next frame
	// (occlusion). Forward tracking converges somewhere spurious; the
	// backward pass must expose it.
	img := texturedImage(128, 96, 33)
	next := translate(img, 1, 0)
	// Paint over the destination region with different texture.
	patch := texturedImage(40, 40, 99)
	for y := 0; y < 40; y++ {
		for x := 0; x < 40; x++ {
			next.Set(45+x, 25+y, patch.At(x, y))
		}
	}
	res := trackFB(t, pyr(img), pyr(next), []geom.Point{{X: 64, Y: 44}}, DefaultParams(), 1.0)
	if res[0].OK {
		t.Errorf("occluded point accepted (fb=%.3f)", res[0].FBError)
	}
}

func TestTrackFBDefaultThreshold(t *testing.T) {
	img := texturedImage(96, 96, 35)
	res := trackFB(t, pyr(img), pyr(img), []geom.Point{{X: 48, Y: 48}}, DefaultParams(), 0)
	if !res[0].OK {
		t.Error("identity tracking rejected with default threshold")
	}
}

func TestTrackFBFailedForwardStaysFailed(t *testing.T) {
	flat := imgproc.NewGray(96, 96)
	flat.Fill(0.5)
	res := trackFB(t, pyr(flat), pyr(flat), []geom.Point{{X: 48, Y: 48}}, DefaultParams(), 1.0)
	if res[0].OK {
		t.Error("flat-region point accepted")
	}
	if res[0].FBError != -1 {
		t.Errorf("failed forward pass should leave FBError -1, got %.3f", res[0].FBError)
	}
}

func TestTrackFBEmptyInput(t *testing.T) {
	img := texturedImage(64, 64, 37)
	if res := trackFB(t, pyr(img), pyr(img), nil, DefaultParams(), 1.0); len(res) != 0 {
		t.Errorf("%d results for no points", len(res))
	}
}

func BenchmarkTrackFB(b *testing.B) {
	img := texturedImage(320, 180, 39)
	next := translate(img, 2, 1)
	pp, np := pyr(img), pyr(next)
	var pts []geom.Point
	for x := 30; x < 300; x += 30 {
		pts = append(pts, geom.Point{X: float64(x), Y: 90})
	}
	p := DefaultParams()
	var s Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.TrackFB(pp, np, pts, p, 1.0)
	}
}
