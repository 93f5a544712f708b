package imgproc

import (
	"math"
	"testing"

	"adavp/internal/rng"
)

func TestGaussianKernelNormalized(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 2.5} {
		k := GaussianKernel(sigma)
		if len(k)%2 != 1 {
			t.Errorf("sigma %f: kernel length %d not odd", sigma, len(k))
		}
		var sum float64
		for _, v := range k {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("sigma %f: kernel sum = %f", sigma, sum)
		}
		// Symmetric and peaked at center.
		for i := 0; i < len(k)/2; i++ {
			if k[i] != k[len(k)-1-i] {
				t.Errorf("sigma %f: kernel not symmetric", sigma)
			}
		}
		if k[len(k)/2] < k[0] {
			t.Errorf("sigma %f: kernel not peaked at center", sigma)
		}
	}
	if k := GaussianKernel(0); len(k) != 1 || k[0] != 1 {
		t.Errorf("GaussianKernel(0) = %v, want identity", k)
	}
}

func TestGaussianBlurPreservesConstant(t *testing.T) {
	g := NewGray(16, 16)
	g.Fill(0.6)
	out := NewGray(16, 16)
	GaussianBlurInto(out, g, 1.5, new(Scratch))
	for i, v := range out.Pix {
		if math.Abs(float64(v)-0.6) > 1e-5 {
			t.Fatalf("blur of constant image changed pixel %d to %f", i, v)
		}
	}
}

func TestGaussianBlurReducesVariance(t *testing.T) {
	s := rng.New(53)
	g := NewGray(32, 32)
	for i := range g.Pix {
		g.Pix[i] = float32(s.Float64())
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
	out := NewGray(32, 32)
	GaussianBlurInto(out, g, 1, new(Scratch))
	if variance(out) >= variance(g) {
		t.Errorf("blur did not reduce variance: %f -> %f", variance(g), variance(out))
	}
	// Sigma <= 0 copies the input.
	GaussianBlurInto(out, g, 0, new(Scratch))
	for i := range g.Pix {
		if out.Pix[i] != g.Pix[i] {
			t.Fatalf("GaussianBlurInto(sigma 0) changed pixel %d: %f -> %f", i, g.Pix[i], out.Pix[i])
		}
	}
}

func TestGradientsOfLinearRamp(t *testing.T) {
	// I(x, y) = 0.01x has dI/dx = 0.01 and dI/dy = 0 in the interior.
	g := NewGray(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			g.Set(x, y, float32(x)*0.01)
		}
	}
	gx, gy := NewGray(16, 16), NewGray(16, 16)
	GradientsInto(gx, gy, g, new(Scratch))
	for y := 2; y < 14; y++ {
		for x := 2; x < 14; x++ {
			if got := gx.At(x, y); math.Abs(float64(got)-0.01) > 1e-5 {
				t.Fatalf("gx(%d,%d) = %f, want 0.01", x, y, got)
			}
			if got := gy.At(x, y); math.Abs(float64(got)) > 1e-5 {
				t.Fatalf("gy(%d,%d) = %f, want 0", x, y, got)
			}
		}
	}
}

func TestGradientsOfVerticalRamp(t *testing.T) {
	g := NewGray(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			g.Set(x, y, float32(y)*0.02)
		}
	}
	gx, gy := NewGray(16, 16), NewGray(16, 16)
	GradientsInto(gx, gy, g, new(Scratch))
	for y := 2; y < 14; y++ {
		for x := 2; x < 14; x++ {
			if got := gy.At(x, y); math.Abs(float64(got)-0.02) > 1e-5 {
				t.Fatalf("gy(%d,%d) = %f, want 0.02", x, y, got)
			}
			if got := gx.At(x, y); math.Abs(float64(got)) > 1e-5 {
				t.Fatalf("gx(%d,%d) = %f, want 0", x, y, got)
			}
		}
	}
}

// TestDownsample2Dimensions pins the size of a reduction step, which the
// pyramid chooses: odd dimensions lose the last row or column.
func TestDownsample2Dimensions(t *testing.T) {
	p := NewPyramid(NewGray(35, 33), 2)
	if out := p.Levels[1]; out.W != 17 || out.H != 16 {
		t.Errorf("level 1 of 35x33 = %dx%d, want 17x16", out.W, out.H)
	}
}

func TestDownsample2PreservesConstant(t *testing.T) {
	g := NewGray(16, 16)
	g.Fill(0.4)
	out := NewGray(8, 8)
	Downsample2Into(out, g, new(Scratch))
	for i, v := range out.Pix {
		if math.Abs(float64(v)-0.4) > 1e-5 {
			t.Fatalf("downsample of constant image changed pixel %d to %f", i, v)
		}
	}
}

func TestPyramidLevels(t *testing.T) {
	g := NewGray(128, 96)
	p := NewPyramid(g, 4)
	if len(p.Levels) != 3 {
		// 128x96 -> 64x48 -> 32x24; next would be 16x12 (H/2=12 < 16), so 3 levels.
		t.Fatalf("pyramid has %d levels, want 3", len(p.Levels))
	}
	if p.Levels[0] != g {
		t.Error("level 0 is not the source image")
	}
	for i := 1; i < len(p.Levels); i++ {
		prev, cur := p.Levels[i-1], p.Levels[i]
		if cur.W != prev.W/2 || cur.H != prev.H/2 {
			t.Errorf("level %d is %dx%d, want %dx%d", i, cur.W, cur.H, prev.W/2, prev.H/2)
		}
	}
}

func TestPyramidMinimumOneLevel(t *testing.T) {
	g := NewGray(8, 8)
	p := NewPyramid(g, 0)
	if len(p.Levels) != 1 {
		t.Fatalf("pyramid has %d levels, want 1", len(p.Levels))
	}
}

func BenchmarkPyramid(b *testing.B) {
	g := NewGray(320, 180)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewPyramid(g, 3)
	}
}
