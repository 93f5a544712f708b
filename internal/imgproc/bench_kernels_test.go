package imgproc

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for the hot pixel kernels, each in optimized and retained
// scalar-reference form, with allocation reporting.
// Run: go test -bench=Kernel ./internal/imgproc/ -benchmem

var benchSizes = [][2]int{{320, 180}, {704, 396}}

func benchEachSize(b *testing.B, fn func(b *testing.B, g *Gray)) {
	for _, size := range benchSizes {
		g := testImage(size[0], size[1])
		b.Run(fmt.Sprintf("%dx%d", size[0], size[1]), func(b *testing.B) {
			b.ReportAllocs()
			fn(b, g)
		})
	}
}

func BenchmarkKernelResize(b *testing.B) {
	benchEachSize(b, func(b *testing.B, g *Gray) {
		dst := NewGray(g.W*512/704, g.H*512/704)
		for i := 0; i < b.N; i++ {
			g.ResizeInto(dst)
		}
	})
}

func BenchmarkKernelResizeRef(b *testing.B) {
	benchEachSize(b, func(b *testing.B, g *Gray) {
		for i := 0; i < b.N; i++ {
			_ = g.ResizeRef(g.W*512/704, g.H*512/704)
		}
	})
}

func BenchmarkKernelGaussianBlur(b *testing.B) {
	benchEachSize(b, func(b *testing.B, g *Gray) {
		var s Scratch
		dst := NewGray(g.W, g.H)
		for i := 0; i < b.N; i++ {
			GaussianBlurInto(dst, g, 1.5, &s)
		}
	})
}

func BenchmarkKernelGaussianBlurRef(b *testing.B) {
	benchEachSize(b, func(b *testing.B, g *Gray) {
		for i := 0; i < b.N; i++ {
			_ = GaussianBlurRef(g, 1.5)
		}
	})
}

func BenchmarkKernelGradients(b *testing.B) {
	benchEachSize(b, func(b *testing.B, g *Gray) {
		var s Scratch
		gx := NewGray(g.W, g.H)
		gy := NewGray(g.W, g.H)
		for i := 0; i < b.N; i++ {
			GradientsInto(gx, gy, g, &s)
		}
	})
}

func BenchmarkKernelGradientsRef(b *testing.B) {
	benchEachSize(b, func(b *testing.B, g *Gray) {
		for i := 0; i < b.N; i++ {
			_, _ = GradientsRef(g)
		}
	})
}

func BenchmarkKernelPyramid(b *testing.B) {
	benchEachSize(b, func(b *testing.B, g *Gray) {
		var s Scratch
		p := &Pyramid{}
		for i := 0; i < b.N; i++ {
			p.Rebuild(g, 3, &s)
		}
	})
}

func BenchmarkKernelPyramidRef(b *testing.B) {
	benchEachSize(b, func(b *testing.B, g *Gray) {
		for i := 0; i < b.N; i++ {
			_ = NewPyramidRef(g, 3)
		}
	})
}

func BenchmarkKernelIntegral(b *testing.B) {
	benchEachSize(b, func(b *testing.B, g *Gray) {
		it := &Integral{}
		for i := 0; i < b.N; i++ {
			it.Rebuild(g)
		}
	})
}

func BenchmarkKernelIntegralRef(b *testing.B) {
	benchEachSize(b, func(b *testing.B, g *Gray) {
		for i := 0; i < b.N; i++ {
			_ = NewIntegralRef(g)
		}
	})
}
