package video

import (
	"testing"

	"adavp/internal/core"
	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/par"
)

func TestRenderDeterministic(t *testing.T) {
	v := GenerateKind("v", KindHighway, 3, 30)
	a := v.Render(10)
	b := v.Render(10)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("rendering is not deterministic")
		}
	}
}

func TestRenderDimensions(t *testing.T) {
	v := GenerateKind("v", KindHighway, 3, 10)
	img := v.Render(0)
	if img.W != v.Params.W || img.H != v.Params.H {
		t.Fatalf("rendered %dx%d, want %dx%d", img.W, img.H, v.Params.W, v.Params.H)
	}
	// Out-of-range render returns a blank frame rather than panicking.
	blank := v.Render(99)
	if blank.W != v.Params.W {
		t.Error("out-of-range render has wrong size")
	}
	for _, p := range blank.Pix {
		if p != 0 {
			t.Fatal("out-of-range render not blank")
		}
	}
}

func TestRenderObjectsBrighterThanBackground(t *testing.T) {
	v := GenerateKind("v", KindHighway, 7, 60)
	// Find a frame with objects.
	for i := 0; i < v.NumFrames(); i++ {
		truth := v.Truth(i)
		if len(truth) == 0 {
			continue
		}
		img := v.Render(i)
		it := imgproc.NewIntegral(img)
		whole := it.BoxMean(0, 0, img.W, img.H)
		for _, o := range truth {
			// Interior mean (shrunk to avoid the dark rim).
			in := geom.RectFromCenter(o.Box.Center(), o.Box.W/2, o.Box.H/2)
			m := it.BoxMean(int(in.Left), int(in.Top), int(in.Right()), int(in.Bottom()))
			if o.Box.W < 6 || o.Box.H < 6 {
				continue // too small for a meaningful interior sample
			}
			if m < whole {
				t.Errorf("frame %d object %d interior %.3f not brighter than scene mean %.3f", i, o.ID, m, whole)
			}
		}
		return
	}
	t.Skip("no frames with objects")
}

func TestRenderTextureMovesWithObject(t *testing.T) {
	// Track one object across two frames: the pixel pattern inside its box
	// must translate with the box (correlation high after shifting), which is
	// the property the LK tracker relies on. Deformation and sensor noise are
	// disabled so rigid attachment is verified in isolation.
	p := ScenarioParams(KindHighway)
	p.Deform = 0
	p.SensorNoise = 0
	v := Generate("v", p, 9, 90)
	var id int
	var f0, f1 int
	// Find an object visible in two frames 3 apart with clear motion.
search:
	for i := 0; i+3 < v.NumFrames(); i++ {
		for _, a := range v.Truth(i) {
			for _, b := range v.Truth(i + 3) {
				if a.ID == b.ID && a.Box.Center().Dist(b.Box.Center()) > 2 &&
					a.Box.W > 12 && a.Box.Left > 10 && b.Box.Left > 10 &&
					a.Box.Right() < float64(v.Params.W-10) && b.Box.Right() < float64(v.Params.W-10) &&
					unoccluded(v, i, a.ID) && unoccluded(v, i+3, b.ID) {
					id = a.ID
					f0, f1 = i, i+3
					break search
				}
			}
		}
	}
	if id == 0 {
		t.Skip("no suitable moving object found")
	}
	var boxA, boxB = findBox(v, f0, id), findBox(v, f1, id)
	imgA := v.Render(f0)
	imgB := v.Render(f1)
	// Sample the object interior in normalized coordinates in both frames;
	// values must correlate strongly.
	var diff, n float64
	for fy := 0.3; fy <= 0.7; fy += 0.1 {
		for fx := 0.3; fx <= 0.7; fx += 0.1 {
			a := imgA.Bilinear(boxA.Left+fx*boxA.W, boxA.Top+fy*boxA.H)
			b := imgB.Bilinear(boxB.Left+fx*boxB.W, boxB.Top+fy*boxB.H)
			d := float64(a - b)
			diff += d * d
			n++
		}
	}
	rmse := diff / n
	if rmse > 0.01 {
		t.Errorf("object texture does not move with the box: interior MSE %.4f", rmse)
	}
}

// unoccluded reports whether no other object's box overlaps the given
// object's box in the frame (so its rendered interior is entirely its own).
func unoccluded(v *Video, frame, id int) bool {
	box := findBox(v, frame, id)
	for _, o := range v.Truth(frame) {
		if o.ID != id && !o.Box.Intersect(box).Empty() {
			return false
		}
	}
	return true
}

func findBox(v *Video, frame, id int) geom.Rect {
	for _, o := range v.Truth(frame) {
		if o.ID == id {
			return o.Box
		}
	}
	return geom.Rect{}
}

func TestObjectLumaStable(t *testing.T) {
	a := ObjectLuma(5, 7, core.ClassCar)
	b := ObjectLuma(5, 7, core.ClassCar)
	if a != b {
		t.Error("ObjectLuma not deterministic")
	}
	if a < objLow-lumaJitter || a > objHigh+lumaJitter {
		t.Errorf("ObjectLuma %.3f outside [%v, %v]", a, objLow, objHigh)
	}
	if ObjectLuma(5, 7, core.ClassCar) == ObjectLuma(5, 8, core.ClassCar) {
		t.Error("different objects share luma")
	}
}

// BenchmarkRenderFrame renders the frames of a video into one raster inside a
// par.Hold, as pixel runs do: static is a highway video, whose frames copy
// the background the first render built; moving is a car-highway video,
// whose frames each compute theirs.
func BenchmarkRenderFrame(b *testing.B) {
	defer par.Hold()()
	for _, c := range []struct {
		name string
		kind Kind
	}{{"static", KindHighway}, {"moving", KindCarHighway}} {
		b.Run(c.name, func(b *testing.B) {
			v := GenerateKind("v", c.kind, 1, 30)
			dst := imgproc.NewGray(v.Params.W, v.Params.H)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.RenderInto(i%30, dst)
			}
		})
	}
}
