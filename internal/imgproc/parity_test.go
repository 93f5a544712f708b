package imgproc

import (
	"encoding/binary"
	"fmt"
	"image"
	"math"
	"testing"

	"adavp/internal/par"
)

// The golden parity suite: the banded-parallel, flat-indexed kernels must be
// bitwise-identical to the retained scalar references (ref_test.go) at every
// tested size and worker count. This is what guarantees that the perf
// rewrite cannot perturb a single simulation or experiment result.

// paritySizes includes tiny, odd, prime-sized and kernel-smaller-than-image
// shapes, plus a DNN-input-sized frame. The first four are also the
// degenerate sources of the fused downsample: zero-width or zero-height
// destinations and rows narrower than the five-tap filter.
var paritySizes = [][2]int{
	{1, 1}, {2, 3}, {3, 5}, {5, 2}, {16, 16}, {17, 31}, {31, 17},
	{64, 64}, {97, 61}, {320, 180}, {101, 7},
}

var parityWorkers = []int{1, 2, 3, 4, 7}

// testImage builds a deterministic, structured test image: smooth gradients
// plus high-frequency detail so border clamping and interpolation paths all
// see non-trivial values.
func testImage(w, h int) *Gray {
	g := NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.5 + 0.4*math.Sin(float64(x)*0.7)*math.Cos(float64(y)*0.31) +
				0.1*math.Sin(float64(x*y)*0.05)
			g.Pix[y*w+x] = float32(v)
		}
	}
	return g
}

// requireIdentical fails unless a and b match bitwise.
func requireIdentical(t *testing.T, name string, a, b *Gray) {
	t.Helper()
	if a.W != b.W || a.H != b.H {
		t.Fatalf("%s: size %dx%d vs %dx%d", name, a.W, a.H, b.W, b.H)
	}
	for i := range a.Pix {
		if math.Float32bits(a.Pix[i]) != math.Float32bits(b.Pix[i]) {
			t.Fatalf("%s: pixel %d (x=%d y=%d): %v vs %v", name, i, i%a.W, i/a.W, a.Pix[i], b.Pix[i])
		}
	}
}

// forEachConfig runs fn for every parity size and worker count, restoring
// the pool afterwards.
func forEachConfig(t *testing.T, fn func(t *testing.T, g *Gray)) {
	t.Cleanup(func() { par.SetWorkers(0) })
	for _, size := range paritySizes {
		g := testImage(size[0], size[1])
		for _, workers := range parityWorkers {
			par.SetWorkers(workers)
			t.Run(fmt.Sprintf("%dx%d/w%d", size[0], size[1], workers), func(t *testing.T) {
				fn(t, g)
			})
		}
	}
}

func TestResizeParity(t *testing.T) {
	forEachConfig(t, func(t *testing.T, g *Gray) {
		for _, target := range [][2]int{{g.W, g.H}, {g.W/2 + 1, g.H/2 + 1}, {2*g.W + 3, g.H + 1}, {7, 5}} {
			w, h := target[0], target[1]
			ref := g.ResizeRef(w, h)
			got := NewGray(w, h)
			g.ResizeInto(got)
			requireIdentical(t, fmt.Sprintf("ResizeInto(%d,%d)", w, h), ref, got)
		}
	})
}

func TestResizeIntoReusedBufferParity(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	par.SetWorkers(4)
	g := testImage(64, 48)
	var s Scratch
	dst := s.Take(33, 21)
	// Poison the buffer: ResizeInto must fully overwrite it.
	for i := range dst.Pix {
		dst.Pix[i] = float32(math.NaN())
	}
	g.ResizeInto(dst)
	requireIdentical(t, "ResizeInto(reused)", g.ResizeRef(33, 21), dst)
}

func TestConvolveParity(t *testing.T) {
	kernels := map[string][]float32{
		"identity": {1},
		"scharr-d": scharrDiff,
		"burt":     burtAdelson,
		"gauss2":   GaussianKernel(2), // radius 6: wider than some test images
	}
	forEachConfig(t, func(t *testing.T, g *Gray) {
		for name, k := range kernels {
			for _, horizontal := range []bool{true, false} {
				ref := Convolve1DRef(g, k, horizontal)
				got := NewGray(g.W, g.H)
				convolve1DInto(got, g, k, horizontal, &Scratch{})
				requireIdentical(t, fmt.Sprintf("convolve1DInto(%s,h=%v)", name, horizontal), ref, got)
			}
		}
	})
}

func TestGaussianBlurParity(t *testing.T) {
	forEachConfig(t, func(t *testing.T, g *Gray) {
		var s Scratch
		dst := NewGray(g.W, g.H)
		for _, sigma := range []float64{0, 0.8, 2.5} {
			ref := GaussianBlurRef(g, sigma)
			// Twice through one scratch: the second call reuses buffers AND
			// the memoized kernel.
			for i := 0; i < 2; i++ {
				GaussianBlurInto(dst, g, sigma, &s)
				requireIdentical(t, fmt.Sprintf("GaussianBlurInto(%.1f)#%d", sigma, i), ref, dst)
			}
		}
	})
}

func TestGradientsParity(t *testing.T) {
	forEachConfig(t, func(t *testing.T, g *Gray) {
		refX, refY := GradientsRef(g)
		// Twice through the same scratch: fresh, then reused.
		var s Scratch
		gx := NewGray(g.W, g.H)
		gy := NewGray(g.W, g.H)
		for i := 0; i < 2; i++ {
			GradientsInto(gx, gy, g, &s)
			requireIdentical(t, "GradientsInto.x", refX, gx)
			requireIdentical(t, "GradientsInto.y", refY, gy)
		}
	})
}

// TestGradientsRectsParity asserts the rectangle form of the Scharr kernel
// against the whole-image scalar reference: inside every rectangle — strips
// along each border, single pixels in the corners and the middle, an
// overlapping pair, the whole image — gx and gy carry bitwise the reference's
// values, and outside them the destination keeps what it held.
func TestGradientsRectsParity(t *testing.T) {
	forEachConfig(t, func(t *testing.T, g *Gray) {
		w, h := g.W, g.H
		refX, refY := GradientsRef(g)
		lists := map[string][]image.Rectangle{
			"whole":   {image.Rect(0, 0, w, h)},
			"left":    {image.Rect(0, h/4, w/3+1, h/2+1)},
			"right":   {image.Rect(w-w/3-1, h/4, w, h/2+1)},
			"top":     {image.Rect(w/4, 0, w/2+1, h/3+1)},
			"bottom":  {image.Rect(w/4, h-h/3-1, w/2+1, h)},
			"pixels":  {image.Rect(0, 0, 1, 1), image.Rect(w-1, 0, w, 1), image.Rect(0, h-1, 1, h), image.Rect(w-1, h-1, w, h), image.Rect(w/2, h/2, w/2+1, h/2+1)},
			"overlap": {image.Rect(0, 0, w/2+1, h/2+1), image.Rect(w/3, h/3, w, h), image.Rect(w/3, 0, w/2+1, h)},
		}
		var s Scratch
		for name, rects := range lists {
			requireRectsParity(t, name, g, refX, refY, rects, &s)
		}
	})
}

// requireRectsParity runs GradientsRectsInto over destinations poisoned with
// NaN and fails unless every pixel inside some rectangle carries the
// reference's bits and every other pixel is still the poison.
func requireRectsParity(t *testing.T, name string, g, refX, refY *Gray, rects []image.Rectangle, s *Scratch) {
	t.Helper()
	w, h := g.W, g.H
	poison := math.Float32bits(float32(math.NaN()))
	gx, gy := NewGray(w, h), NewGray(w, h)
	gx.Fill(math.Float32frombits(poison))
	gy.Fill(math.Float32frombits(poison))
	GradientsRectsInto(gx, gy, g, rects, s)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			wantX, wantY := poison, poison
			for _, r := range rects {
				if image.Pt(x, y).In(r) {
					wantX, wantY = math.Float32bits(refX.Pix[i]), math.Float32bits(refY.Pix[i])
				}
			}
			if math.Float32bits(gx.Pix[i]) != wantX || math.Float32bits(gy.Pix[i]) != wantY {
				t.Fatalf("%s %v: pixel (%d,%d) = (%v, %v), reference (%v, %v)",
					name, rects, x, y, gx.Pix[i], gy.Pix[i], refX.Pix[i], refY.Pix[i])
			}
		}
	}
}

// bandStarts returns the first row of every band but the first that par.Rows
// cuts [0, n) into at w workers: the first n%w bands get one extra row.
func bandStarts(n, w int) []int {
	w = min(w, n)
	var starts []int
	for i, lo := 1, 0; i < w; i++ {
		lo += n / w
		if i-1 < n%w {
			lo++
		}
		starts = append(starts, lo)
	}
	return starts
}

// TestStreamedGradientsBandEdges pins the streamed Scharr body where its
// bands meet: each band rebuilds the horizontal-pass rows above and below its
// first and last gradient row itself, so a rectangle cut by a band boundary,
// one that begins or ends on it, and one a single row tall beside it all
// read halo rows another band also computed. The boundaries are par.Rows' at
// workers 1, 2, 3, 4 and 7 over the row span of the call; the images include
// the degenerate 1×1, 1×N, N×1 and 2×2 ones, and the lists rectangles
// touching each border, nested and overlapping ones. One Scratch, its rings
// dirty from every earlier size and worker count, serves every call.
func TestStreamedGradientsBandEdges(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	var s Scratch
	for _, size := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {23, 19}, {64, 37}, {13, 64}} {
		g := testImage(size[0], size[1])
		w, h := g.W, g.H
		refX, refY := GradientsRef(g)
		for _, workers := range parityWorkers {
			par.SetWorkers(workers)
			label := fmt.Sprintf("%dx%d w%d", w, h, workers)
			// A thin strip down the left column fixes the call's row span at
			// [0, h); each boundary b then gets a rectangle across it, one
			// ending on it, one starting on it and a one-row one at it.
			straddle := []image.Rectangle{image.Rect(0, 0, 1, h)}
			for _, b := range bandStarts(h, workers) {
				x0 := b % w
				straddle = append(straddle,
					image.Rect(x0, b-1, w, b+1),
					image.Rect(0, max(b-2, 0), w/2+1, b),
					image.Rect(w/3, b, w, min(b+2, h)),
					image.Rect(0, b, min(x0+1, w), b+1))
			}
			lists := map[string][]image.Rectangle{
				"band boundaries": straddle,
				// A row span from h/3 on: the band boundaries shift with it.
				"band boundaries, offset span": {image.Rect(0, h/3, w, h), image.Rect(w/2, h/3+h/5, w, h/3+h/5+1)},
				"left border":                  {image.Rect(0, h/4, 1, h/2+1)},
				"right border":                 {image.Rect(w-1, 0, w, h)},
				"top border":                   {image.Rect(0, 0, w, 1)},
				"bottom border":                {image.Rect(w/2, h-1, w, h)},
				"every border":                 {image.Rect(0, 0, w, h)},
				"nested":                       {image.Rect(0, 0, w, h), image.Rect(w/4, h/4, w/2+1, h/2+1), image.Rect(w/3, h/3, w/3+1, h/3+1)},
				"nested, inner first":          {image.Rect(w/4, h/4, w/2+1, h/2+1), image.Rect(0, 0, w, h)},
				"overlapping":                  {image.Rect(0, 0, w/2+1, h/2+1), image.Rect(w/3, h/3, w, h)},
			}
			for name, rects := range lists {
				requireRectsParity(t, label+" "+name, g, refX, refY, rects, &s)
			}
			for name, r := range map[string]image.Rectangle{
				"whole": image.Rect(0, 0, w, h), "prefix": image.Rect(0, 0, w/2+1, h/2+1), "inner": image.Rect(w/3, h/3, w, h),
			} {
				requireStreamParity(t, label+" StreamGradients "+name, g, refX, refY, r, &s)
			}
		}
	}
}

// rowRecorder is a GradientRows receiver that copies each row's columns
// [x0, x1) into gx and gy and counts the calls per row.
type rowRecorder struct {
	gx, gy *Gray
	x0, x1 int
	calls  []int
}

func (rr *rowRecorder) GradientRow(y int, gx, gy []float32) {
	copy(rr.gx.Row(y)[rr.x0:rr.x1], gx[rr.x0:rr.x1])
	copy(rr.gy.Row(y)[rr.x0:rr.x1], gy[rr.x0:rr.x1])
	rr.calls[y]++
}

// requireStreamParity fails unless StreamGradients over r hands every row of
// r to its receiver exactly once, with the reference's bits in r's columns.
func requireStreamParity(t *testing.T, name string, g, refX, refY *Gray, r image.Rectangle, s *Scratch) {
	t.Helper()
	rr := &rowRecorder{gx: NewGray(g.W, g.H), gy: NewGray(g.W, g.H), x0: r.Min.X, x1: r.Max.X, calls: make([]int, g.H)}
	StreamGradients(g, r, rr, s)
	for y := 0; y < g.H; y++ {
		if want := boolInt(y >= r.Min.Y && y < r.Max.Y); rr.calls[y] != want {
			t.Fatalf("%s %v: row %d handed over %d times, want %d", name, r, y, rr.calls[y], want)
		}
	}
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			i := y*g.W + x
			if math.Float32bits(rr.gx.Pix[i]) != math.Float32bits(refX.Pix[i]) || math.Float32bits(rr.gy.Pix[i]) != math.Float32bits(refY.Pix[i]) {
				t.Fatalf("%s %v: pixel (%d,%d) = (%v, %v), reference (%v, %v)",
					name, r, x, y, rr.gx.Pix[i], rr.gy.Pix[i], refX.Pix[i], refY.Pix[i])
			}
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestDownsample2Parity(t *testing.T) {
	forEachConfig(t, func(t *testing.T, g *Gray) {
		ref := Downsample2Ref(g)
		// Twice through the same scratch: fresh, then reused.
		var s Scratch
		dst := NewGray(g.W/2, g.H/2)
		for i := 0; i < 2; i++ {
			Downsample2Into(dst, g, &s)
			requireIdentical(t, "Downsample2Into", ref, dst)
		}
	})
}

func TestPyramidParity(t *testing.T) {
	forEachConfig(t, func(t *testing.T, g *Gray) {
		for _, levels := range []int{1, 3, 5} {
			ref := NewPyramidRef(g, levels)
			got := NewPyramid(g, levels)
			if len(ref.Levels) != len(got.Levels) {
				t.Fatalf("pyramid levels: %d vs %d", len(ref.Levels), len(got.Levels))
			}
			for l := range ref.Levels {
				requireIdentical(t, fmt.Sprintf("Pyramid level %d", l), ref.Levels[l], got.Levels[l])
			}
		}
	})
}

// TestPyramidRebuildReusesBuffers asserts the frame-over-frame reuse the
// pixel tracker depends on: rebuilding with a same-sized image must keep the
// reduced-level buffers and still produce reference output.
func TestPyramidRebuildReusesBuffers(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	par.SetWorkers(3)
	a := testImage(128, 96)
	b := testImage(128, 96)
	for i := range b.Pix {
		b.Pix[i] = 1 - b.Pix[i]
	}
	var s Scratch
	p := &Pyramid{}
	p.Rebuild(a, 3, &s)
	if len(p.Levels) != 3 {
		t.Fatalf("want 3 levels, got %d", len(p.Levels))
	}
	lvl1, lvl2 := p.Levels[1], p.Levels[2]
	p.Rebuild(b, 3, &s)
	if p.Levels[1] != lvl1 || p.Levels[2] != lvl2 {
		t.Error("Rebuild reallocated same-sized level buffers")
	}
	ref := NewPyramidRef(b, 3)
	for l := range ref.Levels {
		requireIdentical(t, fmt.Sprintf("rebuilt level %d", l), ref.Levels[l], p.Levels[l])
	}
}

// requireIntegralIdentical fails unless the two tables match bitwise.
func requireIntegralIdentical(t *testing.T, name string, want, got *Integral) {
	t.Helper()
	if got.W != want.W || got.H != want.H || len(got.sum) != len(want.sum) {
		t.Fatalf("%s: size %dx%d vs %dx%d", name, want.W, want.H, got.W, got.H)
	}
	stride := want.W + 1
	for i := range want.sum {
		if math.Float64bits(want.sum[i]) != math.Float64bits(got.sum[i]) {
			t.Fatalf("%s: cell %d (x=%d y=%d): %v vs %v", name, i, i%stride, i/stride, want.sum[i], got.sum[i])
		}
	}
}

func TestIntegralParity(t *testing.T) {
	forEachConfig(t, func(t *testing.T, g *Gray) {
		ref := NewIntegralRef(g)
		got := NewIntegral(g)
		requireIntegralIdentical(t, "NewIntegral", ref, got)
		// Rebuild into the same table (reused backing array).
		got.Rebuild(g)
		requireIntegralIdentical(t, "Rebuild", ref, got)
	})
}

// productionSizes are the frames the live pipeline feeds the kernels — the
// 608 and 704 rungs of the DNN input ladder at 16:9 — plus an odd-sized one
// (ragged bands at every worker count) and 600×300.
var productionSizes = [][2]int{
	{608, 342}, {704, 396}, {613, 311}, {600, 300},
}

// forEachProductionConfig calls setup once per production size — the scalar
// references are slow there, so it computes them once — and runs the check it
// returns twice in a row at every worker count: the tests share one Scratch
// across all of it, so state pooled by an earlier size, worker count or run
// must not leak into the next. The TestTiled* tests below carry the names
// these sizes have been pinned under since they were first covered.
func forEachProductionConfig(t *testing.T, setup func(g *Gray) func(t *testing.T)) {
	t.Cleanup(func() { par.SetWorkers(0) })
	for _, size := range productionSizes {
		check := setup(testImage(size[0], size[1]))
		for _, workers := range parityWorkers {
			par.SetWorkers(workers)
			for run := 0; run < 2; run++ {
				t.Run(fmt.Sprintf("%dx%d/w%d/run%d", size[0], size[1], workers, run), check)
			}
		}
	}
}

func TestTiledGaussianBlurParity(t *testing.T) {
	var s Scratch
	forEachProductionConfig(t, func(g *Gray) func(t *testing.T) {
		want := GaussianBlurRef(g, 1.2)
		return func(t *testing.T) {
			got := NewGray(g.W, g.H)
			GaussianBlurInto(got, g, 1.2, &s)
			requireIdentical(t, "blur", want, got)
		}
	})
}

func TestTiledGradientsParity(t *testing.T) {
	var s Scratch
	forEachProductionConfig(t, func(g *Gray) func(t *testing.T) {
		wantX, wantY := GradientsRef(g)
		return func(t *testing.T) {
			gx := NewGray(g.W, g.H)
			gy := NewGray(g.W, g.H)
			GradientsInto(gx, gy, g, &s)
			requireIdentical(t, "gx", wantX, gx)
			requireIdentical(t, "gy", wantY, gy)
		}
	})
}

func TestTiledDownsample2Parity(t *testing.T) {
	var s Scratch
	forEachProductionConfig(t, func(g *Gray) func(t *testing.T) {
		want := Downsample2Ref(g)
		return func(t *testing.T) {
			got := NewGray(g.W/2, g.H/2)
			Downsample2Into(got, g, &s)
			requireIdentical(t, "downsample", want, got)
		}
	})
}

func TestTiledPyramidParity(t *testing.T) {
	var s Scratch
	var p Pyramid // rebuilt in place across every size, worker count and run
	forEachProductionConfig(t, func(g *Gray) func(t *testing.T) {
		want := NewPyramidRef(g, 4)
		return func(t *testing.T) {
			p.Rebuild(g, 4, &s)
			if len(p.Levels) != len(want.Levels) {
				t.Fatalf("levels: %d vs %d", len(want.Levels), len(p.Levels))
			}
			for i := range p.Levels {
				requireIdentical(t, fmt.Sprintf("pyramid level %d", i), want.Levels[i], p.Levels[i])
			}
		}
	})
}

func TestTiledIntegralParity(t *testing.T) {
	var it Integral // rebuilt in place across every size, worker count and run
	forEachProductionConfig(t, func(g *Gray) func(t *testing.T) {
		want := NewIntegralRef(g)
		return func(t *testing.T) {
			it.Rebuild(g)
			requireIntegralIdentical(t, "Rebuild", want, &it)
		}
	})
}

func TestBilinearParity(t *testing.T) {
	g := testImage(31, 17)
	// Sweep interior, border and out-of-range samples.
	for _, pt := range [][2]float64{
		{5.3, 7.8}, {0.1, 0.1}, {-0.6, 3.2}, {30.4, 16.9}, {33, -2},
		{15, 8}, {29.999, 15.999}, {-5, -5}, {0, 16.5},
	} {
		ref := g.BilinearRef(pt[0], pt[1])
		got := g.Bilinear(pt[0], pt[1])
		if math.Float32bits(ref) != math.Float32bits(got) {
			t.Errorf("Bilinear(%v,%v): %v vs %v", pt[0], pt[1], ref, got)
		}
	}
}

func TestScratchTakePut(t *testing.T) {
	var s Scratch
	a := s.Take(10, 10)
	s.Put(a)
	b := s.Take(8, 9)
	if b != a {
		t.Error("Take did not reuse the freed buffer")
	}
	if b.W != 8 || b.H != 9 || len(b.Pix) != 72 {
		t.Errorf("reused buffer shape %dx%d len %d", b.W, b.H, len(b.Pix))
	}
	c := s.Take(100, 100) // larger than anything freed
	if c == a || len(c.Pix) != 10000 {
		t.Error("Take for a larger size must allocate fresh")
	}
	s.Put(nil) // no-op
}

// hostileImages are w×h frames whose pixels the rendered video never
// produces: signed zeros, subnormals a few steps from zero whose products
// with the smaller taps underflow to ±0, NaN, ±Inf and ±1e38 near the top of
// the float32 range, each sprinkled over a smooth image or filling a column,
// a row or all of it.
// A kernel that starts an accumulation from its first product instead of +0,
// or reorders taps, parts from the reference on them.
func hostileImages(w, h int) map[string]*Gray {
	negZero := float32(math.Copysign(0, -1))
	sub := math.Float32frombits(1) // 2^-149
	values := map[string]float32{
		"-0": negZero, "+4·2^-149": 4 * sub, "-4·2^-149": -4 * sub, "-2^-149": -sub,
		"NaN": float32(math.NaN()), "+Inf": float32(math.Inf(1)), "-Inf": float32(math.Inf(-1)),
		"+1e38": 1e38, "-1e38": -1e38,
	}
	// An odd column or row is one decimation drops but its neighbours' taps
	// read.
	cx, cy := min(w/2|1, w-1), min(h/2|1, h-1)
	out := map[string]*Gray{}
	for name, v := range values {
		col := NewGray(w, h)
		for y := 0; y < h; y++ {
			col.Pix[y*w+cx] = v
		}
		out[name+" column"] = col
		row := NewGray(w, h)
		for x := 0; x < w; x++ {
			row.Pix[cy*w+x] = v
		}
		out[name+" row"] = row
		all := NewGray(w, h)
		all.Fill(v)
		out[name+" everywhere"] = all
		sprinkled := testImage(w, h)
		for i := 0; i < len(sprinkled.Pix); i += 7 {
			sprinkled.Pix[i] = v
		}
		out[name+" sprinkled"] = sprinkled
	}
	// Negative zeros next to tiny negatives, whose products with the smaller
	// taps underflow to −0.
	mixed := NewGray(w, h)
	for i := range mixed.Pix {
		mixed.Pix[i] = []float32{negZero, -sub, -4 * sub, negZero}[i%4]
	}
	out["-0 and -subnormal"] = mixed
	return out
}

// TestHostilePixelParity runs Downsample2Into, the pyramid, the Scharr gradients
// (whole and over rectangles) and the Gaussian blur over hostileImages at
// degenerate, odd and small sizes, against the scalar references, by
// Float32bits.
func TestHostilePixelParity(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	var s Scratch
	for _, size := range [][2]int{{16, 16}, {5, 2}, {17, 31}, {1, 9}, {9, 1}, {64, 48}} {
		for name, g := range hostileImages(size[0], size[1]) {
			for _, workers := range []int{1, 3} {
				par.SetWorkers(workers)
				label := fmt.Sprintf("%dx%d %s w%d", size[0], size[1], name, workers)
				half := NewGray(g.W/2, g.H/2)
				Downsample2Into(half, g, &s)
				requireIdentical(t, label+" Downsample2Into", Downsample2Ref(g), half)
				ref, got := NewPyramidRef(g, 4), NewPyramid(g, 4)
				for l := range ref.Levels {
					requireIdentical(t, fmt.Sprintf("%s pyramid level %d", label, l), ref.Levels[l], got.Levels[l])
				}
				refX, refY := GradientsRef(g)
				gx, gy := NewGray(g.W, g.H), NewGray(g.W, g.H)
				GradientsInto(gx, gy, g, &s)
				requireIdentical(t, label+" GradientsInto.x", refX, gx)
				requireIdentical(t, label+" GradientsInto.y", refY, gy)
				// Two overlapping rectangles that cover the image, over a
				// poisoned destination.
				gx.Fill(float32(math.NaN()))
				gy.Fill(float32(math.NaN()))
				rects := []image.Rectangle{image.Rect(0, 0, g.W/2+1, g.H), image.Rect(g.W/3, 0, g.W, g.H)}
				GradientsRectsInto(gx, gy, g, rects, &s)
				requireIdentical(t, label+" GradientsRectsInto.x", refX, gx)
				requireIdentical(t, label+" GradientsRectsInto.y", refY, gy)
				blurred := NewGray(g.W, g.H)
				for _, sigma := range []float64{0.8, 1.5} {
					GaussianBlurInto(blurred, g, sigma, &s)
					requireIdentical(t, fmt.Sprintf("%s GaussianBlurInto(%v)", label, sigma), GaussianBlurRef(g, sigma), blurred)
				}
			}
		}
	}
}

// FuzzDownsample2 compares the fused reduction with Downsample2Ref on images
// of arbitrary float32 bit patterns — every four bytes of data are one pixel,
// NaN payloads and subnormals included — at the width width picks: 1 gives
// 1×N, N gives N×1, and anything between an odd or even w × ⌊N/w⌋. Values
// compare by bits, −0 included, except that any two NaNs are equal: adding
// two NaNs keeps the payload of the first operand on amd64, and which one is
// first is the compiler's choice (the reference and the clamped border path,
// the same Go expression, already differ there). The seed corpus runs under
// plain go test.
func FuzzDownsample2(f *testing.F) {
	pixels := func(vs ...float32) []byte {
		b := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	negZero, sub := float32(math.Copysign(0, -1)), math.Float32frombits(1)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	hostile := []float32{negZero, -4 * sub, 4 * sub, nan, inf, -inf, 1e38, -1e38, 0.5, 0, -sub}
	var ramp []float32
	for i := 0; i < 7*9; i++ {
		ramp = append(ramp, hostile[i%len(hostile)]*float32(1+i%3))
	}
	noisy := testImage(13, 11).Pix
	for i := 0; i < len(noisy); i += 5 {
		noisy[i] = math.Float32frombits(0x7f800001 + uint32(i)) // signalling NaNs, distinct payloads
	}
	for _, c := range []struct {
		pix []float32
		w   uint16
	}{
		{ramp, 1}, {ramp, uint16(len(ramp))}, {ramp, 7}, {ramp, 9}, {ramp, 5},
		{noisy, 13}, {noisy, 1}, {noisy, 11},
		{[]float32{negZero, -4 * sub, negZero, -sub, negZero, -4 * sub, negZero, -sub, negZero, -4 * sub}, 5},
		{[]float32{1, 2, 3}, 3},
	} {
		f.Add(pixels(c.pix...), c.w)
	}
	f.Fuzz(func(t *testing.T, data []byte, width uint16) {
		n := min(len(data)/4, 1<<12)
		if n == 0 {
			return
		}
		w := 1 + (int(width)+n-1)%n
		g := NewGray(w, n/w)
		for i := range g.Pix {
			g.Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		var s Scratch
		got := NewGray(g.W/2, g.H/2)
		Downsample2Into(got, g, &s)
		want := Downsample2Ref(g)
		for i := range want.Pix {
			a, b := want.Pix[i], got.Pix[i]
			if math.Float32bits(a) != math.Float32bits(b) && !(a != a && b != b) {
				t.Fatalf("%dx%d: pixel %d (x=%d y=%d): %x, reference %x", g.W, g.H, i, i%got.W, i/got.W, math.Float32bits(b), math.Float32bits(a))
			}
		}
	})
}
