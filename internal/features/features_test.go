package features

import (
	"testing"

	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/rng"
	"adavp/internal/video"
)

// drawRect paints an axis-aligned bright rectangle on a dark background; its
// four corners are canonical Shi–Tomasi features.
func drawRect(img *imgproc.Gray, left, top, w, h int, v float32) {
	for y := top; y < top+h; y++ {
		for x := left; x < left+w; x++ {
			img.Set(x, y, v)
		}
	}
}

func TestDetectFindsRectangleCorners(t *testing.T) {
	img := imgproc.NewGray(64, 64)
	drawRect(img, 20, 20, 20, 20, 1)
	feats := Detect(img, nil, Params{MaxCorners: 8, Quality: 0.05, MinDistance: 5, BlockSize: 3})
	if len(feats) < 4 {
		t.Fatalf("found %d features, want >= 4 (rectangle corners)", len(feats))
	}
	corners := []geom.Point{{X: 20, Y: 20}, {X: 39, Y: 20}, {X: 20, Y: 39}, {X: 39, Y: 39}}
	for _, c := range corners {
		best := 1e9
		for _, f := range feats {
			if d := f.Pt.Dist(c); d < best {
				best = d
			}
		}
		if best > 3 {
			t.Errorf("no feature within 3px of corner %v (closest %.1f)", c, best)
		}
	}
}

func TestDetectIgnoresFlatImage(t *testing.T) {
	img := imgproc.NewGray(32, 32)
	img.Fill(0.5)
	if feats := Detect(img, nil, DefaultParams()); len(feats) != 0 {
		t.Errorf("flat image produced %d features", len(feats))
	}
}

func TestDetectNoFeaturesOnEdgeOnly(t *testing.T) {
	// A single straight vertical edge has large gradient but only in one
	// direction: min eigenvalue stays near zero relative to true corners, so
	// with a corner present in the same image, edge pixels must lose.
	img := imgproc.NewGray(64, 64)
	for y := 0; y < 64; y++ {
		for x := 32; x < 64; x++ {
			img.Set(x, y, 1)
		}
	}
	drawRect(img, 8, 8, 10, 10, 1) // an actual corner source
	feats := Detect(img, nil, Params{MaxCorners: 4, Quality: 0.2, MinDistance: 3, BlockSize: 3})
	for _, f := range feats {
		// No strong feature should sit on the interior of the straight edge
		// (x≈32, y away from image borders).
		if f.Pt.X > 28 && f.Pt.X < 36 && f.Pt.Y > 8 && f.Pt.Y < 56 {
			t.Errorf("feature on straight edge at %v", f.Pt)
		}
	}
}

func TestDetectMaskRestriction(t *testing.T) {
	img := imgproc.NewGray(96, 64)
	drawRect(img, 10, 10, 12, 12, 1)                       // object A
	drawRect(img, 60, 30, 12, 12, 1)                       // object B
	mask := []geom.Rect{{Left: 55, Top: 25, W: 25, H: 25}} // only around B
	feats := Detect(img, mask, Params{MaxCorners: 20, Quality: 0.05, MinDistance: 3, BlockSize: 3})
	if len(feats) == 0 {
		t.Fatal("no features inside mask")
	}
	for _, f := range feats {
		if !mask[0].Contains(f.Pt) {
			t.Errorf("feature %v outside mask", f.Pt)
		}
	}
}

func TestDetectMaxCorners(t *testing.T) {
	img := imgproc.NewGray(128, 128)
	s := rng.New(81)
	for i := 0; i < 30; i++ {
		drawRect(img, 4+s.Intn(110), 4+s.Intn(110), 6, 6, float32(s.Range(0.5, 1)))
	}
	feats := Detect(img, nil, Params{MaxCorners: 10, Quality: 0.01, MinDistance: 3, BlockSize: 3})
	if len(feats) > 10 {
		t.Errorf("MaxCorners=10 returned %d features", len(feats))
	}
	if len(feats) < 10 {
		t.Errorf("expected the cap to bind with 30 rectangles, got %d", len(feats))
	}
}

func TestDetectSortedByScore(t *testing.T) {
	img := imgproc.NewGray(96, 96)
	drawRect(img, 10, 10, 20, 20, 1)
	drawRect(img, 60, 60, 20, 20, 0.3) // weaker contrast -> weaker corners
	feats := Detect(img, nil, Params{MaxCorners: 0, Quality: 0.01, MinDistance: 3, BlockSize: 3})
	for i := 1; i < len(feats); i++ {
		if feats[i].Score > feats[i-1].Score {
			t.Fatalf("features not sorted by descending score at %d", i)
		}
	}
}

func TestDetectMinDistance(t *testing.T) {
	img := imgproc.NewGray(64, 64)
	drawRect(img, 20, 20, 16, 16, 1)
	const minDist = 10.0
	feats := Detect(img, nil, Params{MaxCorners: 0, Quality: 0.01, MinDistance: minDist, BlockSize: 3})
	for i := range feats {
		for j := i + 1; j < len(feats); j++ {
			if d := feats[i].Pt.Dist(feats[j].Pt); d < minDist {
				t.Fatalf("features %v and %v are %.2f apart (< %v)", feats[i].Pt, feats[j].Pt, d, minDist)
			}
		}
	}
}

func TestDetectTinyImage(t *testing.T) {
	if feats := Detect(imgproc.NewGray(2, 2), nil, DefaultParams()); feats != nil {
		t.Errorf("2x2 image produced features: %v", feats)
	}
}

func TestDetectDefaultsForZeroParams(t *testing.T) {
	img := imgproc.NewGray(64, 64)
	drawRect(img, 20, 20, 20, 20, 1)
	// Zero Quality and even BlockSize must be repaired, not crash or return garbage.
	feats := Detect(img, nil, Params{MaxCorners: 5, Quality: 0, MinDistance: 0, BlockSize: 4})
	if len(feats) == 0 {
		t.Error("zero-params detection found nothing")
	}
}

func TestScoreMapCornerVsEdgeVsFlat(t *testing.T) {
	img := imgproc.NewGray(64, 64)
	drawRect(img, 16, 16, 32, 32, 1)
	score := ScoreMap(img, 3)
	corner := score.At(16, 16)
	edge := score.At(32, 16) // midpoint of the top edge
	flat := score.At(32, 32) // interior
	if corner <= edge {
		t.Errorf("corner score %f not greater than edge score %f", corner, edge)
	}
	if edge < 0 {
		t.Errorf("edge score negative: %f", edge)
	}
	if flat > corner*0.01 {
		t.Errorf("flat interior score %f too high vs corner %f", flat, corner)
	}
}

func BenchmarkDetect320(b *testing.B) {
	img := imgproc.NewGray(320, 180)
	s := rng.New(7)
	for i := 0; i < 12; i++ {
		drawRect(img, s.Intn(300), s.Intn(160), 12, 12, float32(s.Range(0.4, 1)))
	}
	masks := []geom.Rect{{Left: 0, Top: 0, W: 320, H: 180}}
	p := DefaultParams()
	var scratch Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = scratch.Detect(img, masks, p)
	}
}

// BenchmarkDetect704 is the tracker's Init at the benchmark's frame size: a
// rendered 704×396 frame through one reused Scratch, on the truth boxes (what
// the tracker passes) and on one whole-frame mask — the worst case, where
// nothing can be skipped. The reference rows are the whole-frame form the
// parity tests compare against.
func BenchmarkDetect704(b *testing.B) {
	vp := video.ScenarioParams(video.KindCityStreet)
	vp.W, vp.H = 704, 396
	f := video.Generate("v", vp, 1, 12).FrameWithPixels(8)
	var boxes []geom.Rect
	for _, o := range f.Truth {
		boxes = append(boxes, o.Box)
	}
	whole := []geom.Rect{{W: 704, H: 396}}
	p := trackerParams()
	for _, c := range []struct {
		name  string
		masks []geom.Rect
	}{{"truth-boxes", boxes}, {"whole-frame", whole}} {
		b.Run(c.name, func(b *testing.B) {
			var scratch Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = scratch.Detect(f.Pixels, c.masks, p)
			}
		})
		b.Run(c.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = detectRef(f.Pixels, c.masks, p)
			}
		})
	}
}
