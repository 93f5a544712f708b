package features

import (
	"fmt"
	"image"
	"math"
	"testing"

	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/par"
	"adavp/internal/rng"
	"adavp/internal/video"
)

// requireSameFeatures fails unless got and want are the same features in the
// same order, positions equal and scores bitwise equal.
func requireSameFeatures(t *testing.T, name string, got, want []Feature) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d features, reference has %d", name, len(got), len(want))
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: nil-ness differs: got %v, reference %v", name, got == nil, want == nil)
	}
	for i := range got {
		if got[i].Pt != want[i].Pt || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: feature %d = %v score %x, reference %v score %x", name, i,
				got[i].Pt, math.Float64bits(got[i].Score), want[i].Pt, math.Float64bits(want[i].Score))
		}
	}
}

// trackerParams is what track.NewPixelTracker runs the detector with.
func trackerParams() Params {
	p := DefaultParams()
	p.MaxCorners = 60
	p.MinDistance = 4
	return p
}

// TestDetectMatchesReference compares Scratch.Detect with the whole-frame
// reference over every scenario kind at two resolutions, on truth-box masks
// and on no masks, at four worker counts — with one Scratch carried dirty
// through all of it, so a value left over from another frame, another kind or
// another image size would show.
func TestDetectMatchesReference(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	var s Scratch
	total := 0
	for _, size := range [][2]int{{704, 396}, {320, 180}} {
		for _, k := range video.EveryKind() {
			vp := video.ScenarioParams(k)
			vp.W, vp.H = size[0], size[1]
			v := video.Generate(fmt.Sprintf("%v-%dx%d", k, vp.W, vp.H), vp, 7, 24)
			for _, fi := range []int{0, 7, 16, 23} {
				f := v.FrameWithPixels(fi)
				masks := make([]geom.Rect, 0, len(f.Truth))
				for _, o := range f.Truth {
					masks = append(masks, o.Box)
				}
				p := trackerParams()
				if fi == 16 {
					masks = nil // the whole interior
					p = DefaultParams()
				}
				par.SetWorkers(1)
				want := detectRef(f.Pixels, masks, p)
				total += len(want)
				for _, workers := range []int{1, 2, 3, 7} {
					par.SetWorkers(workers)
					name := fmt.Sprintf("%v %dx%d frame %d workers %d", k, vp.W, vp.H, fi, workers)
					requireSameFeatures(t, name, s.Detect(f.Pixels, masks, p), want)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("the reference found no feature on any frame: the comparison is vacuous")
	}
}

// scoreMap is s's score pass over the whole of img: the score map, border
// pixels included, in s's buffer.
func scoreMap(s *Scratch, img *imgproc.Gray, blockSize int) *imgproc.Gray {
	s.scoreRects(img, blockSize, []image.Rectangle{image.Rect(0, 0, img.W, img.H)})
	return s.score
}

// TestScoreMapMatchesReference pins Scratch's score pass over the whole image,
// border pixels included, at odd, even and oversized block sizes. One Scratch
// is carried through every image, block size and worker count, and a fresh
// one must agree with it: a value left over from a larger image or window
// would show.
func TestScoreMapMatchesReference(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	v := video.GenerateKind("v", video.KindCityStreet, 3, 6)
	img := v.FrameWithPixels(4).Pixels
	var reused Scratch
	for _, img := range []*imgproc.Gray{img, noiseImage(5, 4, 1), noiseImage(1, 1, 2), imgproc.NewGray(0, 0), imgproc.NewGray(0, 5), imgproc.NewGray(5, 0)} {
		for _, block := range []int{0, 3, 4, 7, 1001} {
			par.SetWorkers(1)
			want := scoreMapRef(img, block)
			for _, workers := range []int{1, 3} {
				par.SetWorkers(workers)
				var fresh Scratch
				for name, got := range map[string]*imgproc.Gray{"reused": scoreMap(&reused, img, block), "fresh": scoreMap(&fresh, img, block)} {
					if got.W != want.W || got.H != want.H || len(got.Pix) != len(want.Pix) {
						t.Fatalf("%s %dx%d block %d: score map is %dx%d", name, img.W, img.H, block, got.W, got.H)
					}
					for i := range got.Pix {
						if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
							t.Fatalf("%s %dx%d block %d workers %d: pixel %d = %x, reference %x", name, img.W, img.H,
								block, workers, i, math.Float32bits(got.Pix[i]), math.Float32bits(want.Pix[i]))
						}
					}
				}
			}
		}
	}
}

// noiseImage returns a w×h image of seeded uniform noise: corners everywhere.
func noiseImage(w, h int, seed uint64) *imgproc.Gray {
	img := imgproc.NewGray(w, h)
	s := rng.New(seed)
	for i := range img.Pix {
		img.Pix[i] = float32(s.Range(0, 1))
	}
	return img
}

// TestDetectMatchesReferenceEdgeCases drives the mask-to-rectangle conversion
// and the span walk where they could part from the per-pixel Contains filter.
func TestDetectMatchesReferenceEdgeCases(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	nan, inf := math.NaN(), math.Inf(1)
	const w, h = 48, 36
	cases := []struct {
		name  string
		masks []geom.Rect
	}{
		{"no masks", nil},
		{"empty list", []geom.Rect{}},
		{"overlapping", []geom.Rect{{Left: 5, Top: 5, W: 20, H: 15}, {Left: 15, Top: 10, W: 20, H: 15}}},
		{"overlapping, right one first", []geom.Rect{{Left: 15, Top: 10, W: 20, H: 15}, {Left: 5, Top: 5, W: 20, H: 15}}},
		{"nested", []geom.Rect{{Left: 4, Top: 4, W: 30, H: 25}, {Left: 10, Top: 10, W: 8, H: 8}}},
		{"nested, inner first", []geom.Rect{{Left: 10, Top: 10, W: 8, H: 8}, {Left: 4, Top: 4, W: 30, H: 25}}},
		{"touching side by side", []geom.Rect{{Left: 5, Top: 5, W: 10, H: 10}, {Left: 15, Top: 8, W: 10, H: 10}}},
		{"one pixel apart", []geom.Rect{{Left: 5, Top: 5, W: 10, H: 10}, {Left: 16, Top: 5, W: 10, H: 10}}},
		{"three on one row, unordered", []geom.Rect{{Left: 30, Top: 6, W: 9, H: 9}, {Left: 3, Top: 4, W: 9, H: 9}, {Left: 16, Top: 8, W: 9, H: 9}}},
		{"left edge", []geom.Rect{{Left: -4, Top: 10, W: 12, H: 10}}},
		{"top edge", []geom.Rect{{Left: 10, Top: -3, W: 12, H: 10}}},
		{"right edge", []geom.Rect{{Left: 40, Top: 10, W: 20, H: 10}}},
		{"bottom edge", []geom.Rect{{Left: 10, Top: 30, W: 12, H: 20}}},
		{"exactly the frame", []geom.Rect{{Left: 0, Top: 0, W: w, H: h}}},
		{"larger than the frame", []geom.Rect{{Left: -1e9, Top: -1e9, W: 2e9, H: 2e9}}},
		{"border pixels only", []geom.Rect{{Left: 0, Top: 0, W: 1, H: h}, {Left: 0, Top: h - 1, W: w, H: 1}}},
		{"fully outside", []geom.Rect{{Left: 100, Top: 100, W: 10, H: 10}, {Left: -30, Top: 5, W: 10, H: 10}}},
		{"outside and inside", []geom.Rect{{Left: 100, Top: 100, W: 10, H: 10}, {Left: 8, Top: 8, W: 12, H: 12}}},
		{"zero area", []geom.Rect{{Left: 10, Top: 10, W: 0, H: 10}, {Left: 10, Top: 10, W: 10, H: 0}}},
		{"negative size", []geom.Rect{{Left: 20, Top: 20, W: -10, H: -10}}},
		{"integer left", []geom.Rect{{Left: 3.0, Top: 4.0, W: 20, H: 20}}},
		{"fractional left", []geom.Rect{{Left: 3.5, Top: 4.5, W: 20, H: 20}}},
		{"fractional right", []geom.Rect{{Left: 3, Top: 4, W: 20.25, H: 19.75}}},
		{"between two pixels", []geom.Rect{{Left: 10.2, Top: 5, W: 0.5, H: 20}}},
		{"one pixel", []geom.Rect{{Left: 19.5, Top: 15.5, W: 1, H: 1}}},
		{"NaN left", []geom.Rect{{Left: nan, Top: 5, W: 20, H: 20}}},
		{"NaN top", []geom.Rect{{Left: 5, Top: nan, W: 20, H: 20}}},
		{"NaN width", []geom.Rect{{Left: 5, Top: 5, W: nan, H: 20}}},
		{"NaN height beside a good mask", []geom.Rect{{Left: 5, Top: 5, W: 20, H: nan}, {Left: 22, Top: 12, W: 15, H: 15}}},
		{"+Inf width", []geom.Rect{{Left: 12, Top: 9, W: inf, H: 14}}},
		{"+Inf height", []geom.Rect{{Left: 12, Top: 9, W: 14, H: inf}}},
		{"-Inf left, +Inf width", []geom.Rect{{Left: -inf, Top: 9, W: inf, H: 14}}},
		{"-Inf left", []geom.Rect{{Left: -inf, Top: -inf, W: 30, H: 30}}},
		{"+Inf left", []geom.Rect{{Left: inf, Top: 5, W: 10, H: 10}}},
		{"huge finite", []geom.Rect{{Left: -1e300, Top: -1e300, W: 1e301, H: 1e301}}},
		// The table keeps only the columns the window sums read: at r = 1
		// a mask's pixels [x0, x1) read columns [x0−2, x1+2], and a mask
		// narrower than the window reads two runs of its own.
		{"window columns disjoint", []geom.Rect{{Left: 5, Top: 5, W: 6, H: 9}, {Left: 30, Top: 12, W: 6, H: 9}}},
		{"window columns adjacent", []geom.Rect{{Left: 5, Top: 5, W: 6, H: 9}, {Left: 16, Top: 12, W: 6, H: 9}}},
		{"window columns overlapping", []geom.Rect{{Left: 5, Top: 5, W: 6, H: 9}, {Left: 13, Top: 8, W: 6, H: 9}}},
		{"window columns reach table column 0", []geom.Rect{{Left: 1, Top: 6, W: 3, H: 10}}},
		{"window columns reach table column w", []geom.Rect{{Left: w - 4, Top: 6, W: 10, H: 10}}},
		{"narrow masks at both ends", []geom.Rect{{Left: w - 3, Top: 3, W: 2, H: 20}, {Left: 1, Top: 14, W: 2, H: 20}}},
	}
	img := noiseImage(w, h, 11)
	params := []Params{
		trackerParams(),
		{MaxCorners: 0, Quality: 0.01, MinDistance: 0, BlockSize: 3},
		{MaxCorners: 7, Quality: 0.2, MinDistance: 2.5, BlockSize: 4},
		{MaxCorners: 0, Quality: 0.001, MinDistance: 0.5, BlockSize: 9},
		{MaxCorners: 0, Quality: 0.001, MinDistance: 1e12, BlockSize: 101},
	}
	var s Scratch
	some := false
	for _, c := range cases {
		for pi, p := range params {
			par.SetWorkers(1)
			want := detectRef(img, c.masks, p)
			some = some || len(want) > 0
			for _, workers := range []int{1, 3} {
				par.SetWorkers(workers)
				name := fmt.Sprintf("%s, params %d, workers %d", c.name, pi, workers)
				requireSameFeatures(t, name, s.Detect(img, c.masks, p), want)
				requireSameFeatures(t, name+", package-level", Detect(img, c.masks, p), want)
			}
		}
	}
	if !some {
		t.Fatal("the reference found no feature in any case")
	}

	// Pixels that are not numbers poison every table cell below and to the
	// right of them; the comparisons that meet the NaN responses must fall
	// the way the reference's do.
	for _, v := range []float32{float32(nan), float32(inf), -float32(inf)} {
		bad := noiseImage(w, h, 17)
		bad.Set(20, 14, v)
		bad.Set(40, 30, 0.5)
		for _, masks := range [][]geom.Rect{nil, {{Left: 5, Top: 5, W: 12, H: 8}}, {{Left: 10, Top: 8, W: 30, H: 20}}} {
			for _, p := range params[:3] {
				name := fmt.Sprintf("pixel %v masks %v", v, masks)
				requireSameFeatures(t, name, s.Detect(bad, masks, p), detectRef(bad, masks, p))
			}
		}
	}

	// The smallest images the detector accepts, and the ones it does not.
	for _, size := range [][2]int{{3, 3}, {4, 3}, {3, 4}, {5, 5}, {2, 9}, {9, 2}, {0, 0}} {
		tiny := noiseImage(size[0], size[1], 13)
		for _, masks := range [][]geom.Rect{nil, {{Left: 1, Top: 1, W: 1, H: 1}}, {{Left: 0.5, Top: 0, W: 9, H: 9}}} {
			for _, p := range params {
				name := fmt.Sprintf("%dx%d masks %v", size[0], size[1], masks)
				requireSameFeatures(t, name, s.Detect(tiny, masks, p), detectRef(tiny, masks, p))
			}
		}
	}
}

// TestDetectTiedScoresKeepReferenceOrder feeds the unstable sort exact ties.
// On an image of 0s and 1s every gradient is a multiple of 1/32 and every
// window sum is exact, so the corners of equal squares score bitwise equal —
// and which of them come first, survive the spacing and make the cap depends
// on the order the candidates entered the sort in. Masks listed right to left
// and bottom to top make that order the span walk's doing.
func TestDetectTiedScoresKeepReferenceOrder(t *testing.T) {
	img := imgproc.NewGray(120, 90)
	var masks []geom.Rect
	for gy := 2; gy >= 0; gy-- {
		for gx := 3; gx >= 0; gx-- {
			drawRect(img, 10+gx*28, 8+gy*28, 12, 12, 1)
			masks = append(masks, geom.Rect{Left: float64(4 + gx*28), Top: float64(2 + gy*28), W: 24, H: 24})
		}
	}
	all := Params{MaxCorners: 0, Quality: 0.5, MinDistance: 0, BlockSize: 3}
	want := detectRef(img, masks, all)
	tied := 0
	for _, f := range want {
		if f.Score == want[0].Score {
			tied++
		}
	}
	if tied < 48 {
		t.Fatalf("only %d of %d features tie for the top score; the image should give 4 per square", tied, len(want))
	}
	var s Scratch
	for _, p := range []Params{
		all,
		{MaxCorners: 10, Quality: 0.5, MinDistance: 0, BlockSize: 3},
		{MaxCorners: 10, Quality: 0.5, MinDistance: 13, BlockSize: 3},
		{MaxCorners: 0, Quality: 0.5, MinDistance: 30, BlockSize: 3},
	} {
		for _, m := range [][]geom.Rect{masks, nil} {
			name := fmt.Sprintf("%+v, %d masks", p, len(m))
			requireSameFeatures(t, name, s.Detect(img, m, p), detectRef(img, m, p))
		}
	}
}
