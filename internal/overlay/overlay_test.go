package overlay

import (
	"testing"

	"adavp/internal/core"
	"adavp/internal/geom"
	"adavp/internal/imgproc"
)

func testDetections() []core.Detection {
	return []core.Detection{
		{Class: core.ClassCar, Box: geom.Rect{Left: 20, Top: 30, W: 40, H: 20}, Score: 0.9},
		{Class: core.ClassPerson, Box: geom.Rect{Left: 70, Top: 15, W: 10, H: 25}, Score: 0.7},
	}
}

func TestDrawDoesNotModifyInput(t *testing.T) {
	img := imgproc.NewGray(120, 80)
	img.Fill(0.3)
	out := Draw(img, testDetections(), DefaultStyle())
	for _, v := range img.Pix {
		if v != 0.3 {
			t.Fatal("Draw modified its input image")
		}
	}
	if out == img {
		t.Fatal("Draw returned the input image")
	}
}

func TestDrawOutlines(t *testing.T) {
	img := imgproc.NewGray(120, 80)
	img.Fill(0.3)
	dets := testDetections()
	out := Draw(img, dets, DefaultStyle())
	box := dets[0].Box
	// The four outline edges are bright.
	for _, pt := range [][2]int{
		{int(box.Left) + 5, int(box.Top)},      // top edge
		{int(box.Left) + 5, int(box.Bottom())}, // bottom edge
		{int(box.Left), int(box.Top) + 5},      // left edge
		{int(box.Right()), int(box.Top) + 5},   // right edge
	} {
		if got := out.At(pt[0], pt[1]); got != 1 {
			t.Errorf("outline pixel (%d,%d) = %f, want 1", pt[0], pt[1], got)
		}
	}
	// The interior is untouched.
	if got := out.At(int(box.Center().X), int(box.Center().Y)); got != 0.3 {
		t.Errorf("interior pixel = %f, want 0.3", got)
	}
}

func TestDrawNilImage(t *testing.T) {
	if Draw(nil, testDetections(), DefaultStyle()) != nil {
		t.Error("nil image should yield nil")
	}
}

func TestDrawClipsOutOfFrameBoxes(t *testing.T) {
	img := imgproc.NewGray(50, 50)
	dets := []core.Detection{{Class: core.ClassCar, Box: geom.Rect{Left: -10, Top: -10, W: 200, H: 200}}}
	// Must not panic; out-of-range writes are dropped.
	out := Draw(img, dets, DefaultStyle())
	if out == nil {
		t.Fatal("nil output")
	}
}

func TestDrawLabelNearBox(t *testing.T) {
	img := imgproc.NewGray(200, 100)
	dets := []core.Detection{{Class: core.ClassCar, Box: geom.Rect{Left: 50, Top: 40, W: 40, H: 20}, Score: 1}}
	out := Draw(img, dets, DefaultStyle())
	// Some label pixels exist in the band above the box.
	lit := 0
	for y := 40 - glyphH - 2; y < 40; y++ {
		for x := 50; x < 50+3*(glyphW+1)-1; x++ {
			if out.At(x, y) == 1 {
				lit++
			}
		}
	}
	if lit == 0 {
		t.Error("no label pixels above the box")
	}
}

func TestDrawTextWidthAndClipping(t *testing.T) {
	img := imgproc.NewGray(30, 10)
	w := DrawText(img, 0, 1, "CAR", 1)
	if w != 3*(glyphW+1) {
		t.Errorf("drawn width = %d", w)
	}
	if w := DrawText(img, 0, 1, "", 1); w != 0 {
		t.Errorf("empty text drawn width = %d", w)
	}
	// Clipped text must not panic.
	DrawText(img, 25, 8, "LONG TEXT PAST THE EDGE", 1)
	// Unknown runes draw the block glyph.
	DrawText(img, 0, 0, "€", 1)
}

func TestFontCoversLabels(t *testing.T) {
	// Every class name must render without falling back to the block glyph.
	for c := core.ClassCar; c.Valid(); c++ {
		for _, r := range c.String() {
			upper := []rune(string(r))[0]
			if upper >= 'a' && upper <= 'z' {
				upper = upper - 'a' + 'A'
			}
			if _, ok := font[upper]; !ok && r != ' ' {
				t.Errorf("font missing glyph %q used by class %v", r, c)
			}
		}
	}
}

func TestSideBySide(t *testing.T) {
	left := imgproc.NewGray(10, 8)
	left.Fill(0.2)
	right := imgproc.NewGray(12, 8)
	right.Fill(0.8)
	out := SideBySide(left, right)
	if out.W != 10+2+12 || out.H != 8 {
		t.Fatalf("composite size %dx%d", out.W, out.H)
	}
	if out.At(5, 4) != 0.2 || out.At(15, 4) != 0.8 {
		t.Error("composite content wrong")
	}
	if out.At(10, 4) != 0.5 {
		t.Error("separator missing")
	}
}

func TestSideBySidePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("height mismatch did not panic")
		}
	}()
	SideBySide(imgproc.NewGray(4, 4), imgproc.NewGray(4, 6))
}

func TestAnnotate(t *testing.T) {
	img := imgproc.NewGray(100, 60)
	truth := []core.Object{{ID: 1, Class: core.ClassCar, Box: geom.Rect{Left: 10, Top: 10, W: 30, H: 15}}}
	out := core.FrameOutput{FrameIndex: 7, Source: core.SourceTracker, Detections: testDetections()}
	composite := Annotate(img, truth, out)
	if composite.W != 2*100+2 || composite.H != 60 {
		t.Fatalf("annotate size %dx%d", composite.W, composite.H)
	}
}

func BenchmarkDraw(b *testing.B) {
	img := imgproc.NewGray(320, 180)
	dets := testDetections()
	style := DefaultStyle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Draw(img, dets, style)
	}
}
