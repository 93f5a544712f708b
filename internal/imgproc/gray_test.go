package imgproc

import (
	"math"
	"testing"

	"adavp/internal/rng"
)

// Mean returns the average pixel value, or 0 for an empty image. Only this
// package's tests read it, so it lives with them.
func (g *Gray) Mean() float64 {
	if len(g.Pix) == 0 {
		return 0
	}
	var sum float64
	for _, v := range g.Pix {
		sum += float64(v)
	}
	return sum / float64(len(g.Pix))
}

func TestNewGray(t *testing.T) {
	g := NewGray(4, 3)
	if g.W != 4 || g.H != 3 || len(g.Pix) != 12 {
		t.Fatalf("NewGray produced %dx%d with %d pixels", g.W, g.H, len(g.Pix))
	}
	for _, v := range g.Pix {
		if v != 0 {
			t.Fatal("new image not zeroed")
		}
	}
}

func TestNewGrayPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGray(-1, 2) did not panic")
		}
	}()
	NewGray(-1, 2)
}

func TestAtClamping(t *testing.T) {
	g := NewGray(3, 3)
	g.Set(0, 0, 0.1)
	g.Set(2, 2, 0.9)
	cases := []struct {
		x, y int
		want float32
	}{
		{0, 0, 0.1},
		{-5, -5, 0.1}, // clamps to top-left
		{10, 10, 0.9}, // clamps to bottom-right
		{-1, 2, g.At(0, 2)},
	}
	for _, c := range cases {
		if got := g.At(c.x, c.y); got != c.want {
			t.Errorf("At(%d,%d) = %f, want %f", c.x, c.y, got, c.want)
		}
	}
}

func TestAtEmptyImage(t *testing.T) {
	g := NewGray(0, 0)
	if got := g.At(3, 3); got != 0 {
		t.Errorf("At on empty image = %f", got)
	}
}

func TestSetOutOfBoundsIgnored(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(5, 5, 1) // must not panic
	g.Set(-1, 0, 1)
	for _, v := range g.Pix {
		if v != 0 {
			t.Fatal("out-of-bounds Set modified a pixel")
		}
	}
}

func TestClone(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(1, 1, 0.5)
	c := g.Clone()
	c.Set(0, 0, 0.7)
	if g.At(0, 0) != 0 {
		t.Error("Clone shares pixel storage with original")
	}
	if c.At(1, 1) != 0.5 {
		t.Error("Clone did not copy pixels")
	}
}

func TestBilinearExactAtIntegers(t *testing.T) {
	g := NewGray(3, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			g.Set(x, y, float32(y*3+x)/10)
		}
	}
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if got, want := g.Bilinear(float64(x), float64(y)), g.At(x, y); got != want {
				t.Errorf("Bilinear(%d,%d) = %f, want %f", x, y, got, want)
			}
		}
	}
}

func TestBilinearMidpoint(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(0, 0, 0)
	g.Set(1, 0, 1)
	g.Set(0, 1, 0)
	g.Set(1, 1, 1)
	if got := g.Bilinear(0.5, 0.5); math.Abs(float64(got)-0.5) > 1e-6 {
		t.Errorf("Bilinear midpoint = %f, want 0.5", got)
	}
	// A linear ramp must be reproduced exactly by bilinear interpolation.
	if got := g.Bilinear(0.25, 0.75); math.Abs(float64(got)-0.25) > 1e-6 {
		t.Errorf("Bilinear(0.25,0.75) = %f, want 0.25", got)
	}
}

// Property: bilinear samples are bounded by the min/max of the image.
func TestBilinearBounded(t *testing.T) {
	s := rng.New(41)
	g := NewGray(8, 8)
	lo, hi := float32(1), float32(0)
	for i := range g.Pix {
		g.Pix[i] = float32(s.Float64())
		if g.Pix[i] < lo {
			lo = g.Pix[i]
		}
		if g.Pix[i] > hi {
			hi = g.Pix[i]
		}
	}
	for i := 0; i < 1000; i++ {
		x := s.Range(-2, 10)
		y := s.Range(-2, 10)
		v := g.Bilinear(x, y)
		if v < lo-1e-6 || v > hi+1e-6 {
			t.Fatalf("Bilinear(%f,%f) = %f outside [%f, %f]", x, y, v, lo, hi)
		}
	}
}

func TestResizeIdentity(t *testing.T) {
	s := rng.New(43)
	g := NewGray(7, 5)
	for i := range g.Pix {
		g.Pix[i] = float32(s.Float64())
	}
	out := NewGray(7, 5)
	g.ResizeInto(out)
	for i := range g.Pix {
		if math.Abs(float64(out.Pix[i]-g.Pix[i])) > 1e-6 {
			t.Fatalf("identity resize changed pixel %d: %f -> %f", i, g.Pix[i], out.Pix[i])
		}
	}
}

func TestResizePreservesMeanOfConstant(t *testing.T) {
	g := NewGray(10, 10)
	g.Fill(0.37)
	out := NewGray(4, 6)
	g.ResizeInto(out)
	for i, v := range out.Pix {
		if math.Abs(float64(v)-0.37) > 1e-6 {
			t.Fatalf("resize of constant image produced pixel %d = %f", i, v)
		}
	}
}

func TestResizeDownDestroysDetail(t *testing.T) {
	// A fine checkerboard has high variance at full resolution; shrinking it
	// far below the pattern frequency must reduce the variance. This is the
	// physical effect behind the detection accuracy vs input-size tradeoff.
	g := NewGray(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			if (x+y)%2 == 0 {
				g.Set(x, y, 1)
			}
		}
	}
	variance := func(img *Gray) float64 {
		m := img.Mean()
		var sum float64
		for _, v := range img.Pix {
			d := float64(v) - m
			sum += d * d
		}
		return sum / float64(len(img.Pix))
	}
	small := NewGray(8, 8)
	g.ResizeInto(small)
	if variance(small) >= variance(g)*0.5 {
		t.Errorf("downsampling kept too much detail: %f vs %f", variance(small), variance(g))
	}
}

func TestResizeEmpty(t *testing.T) {
	// Into an empty image is a no-op; from one, the destination is zeroed.
	NewGray(4, 4).ResizeInto(NewGray(0, 0))
	out := NewGray(3, 2)
	out.Fill(0.5)
	NewGray(0, 0).ResizeInto(out)
	for i, v := range out.Pix {
		if v != 0 {
			t.Fatalf("resize of an empty image left pixel %d = %f", i, v)
		}
	}
}

func TestMean(t *testing.T) {
	g := NewGray(2, 2)
	g.Pix = []float32{0, 0.5, 0.5, 1}
	if got := g.Mean(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Mean = %f", got)
	}
	if got := NewGray(0, 0).Mean(); got != 0 {
		t.Errorf("Mean of empty = %f", got)
	}
}
