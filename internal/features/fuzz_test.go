package features

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"adavp/internal/geom"
)

// FuzzDetect compares Scratch.Detect with detectRef on fuzzed small frames and
// fuzzed mask rectangles. Every four bytes of pix are one pixel's float32
// bits — NaN payloads, ±Inf, −0 and subnormals included — at the width width
// picks (at most 48 wide and 48·48 pixels in all); up to two masks take their edges from the
// fuzzed floats, so off-frame, zero-area, negative, NaN and infinite
// rectangles all arrive; param picks one of the edge-case test's parameter
// sets. One Scratch is carried through every input, so a value left over from
// another frame size or mask set would show. Features compare as
// requireSameFeatures does, except that any two NaN scores are equal: which
// NaN payload survives a sum of two is the compiler's choice. The seed corpus
// runs under plain go test.
func FuzzDetect(f *testing.F) {
	pixels := func(vs ...float32) []byte {
		b := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	nan, inf := math.NaN(), math.Inf(1)
	negZero, sub := float32(math.Copysign(0, -1)), math.Float32frombits(1)
	noise := noiseImage(24, 18, 5).Pix
	hostile := append([]float32(nil), noise...)
	for i, v := range []float32{float32(nan), float32(inf), -float32(inf), negZero, sub, 1e38} {
		hostile[(2*i+3)*24+5+3*i] = v
	}
	square := make([]float32, 20*16)
	for y := 5; y < 11; y++ {
		for x := 6; x < 13; x++ {
			square[y*20+x] = 1
		}
	}
	for _, c := range []struct {
		pix            []float32
		width, masks   uint8
		l0, t0, w0, h0 float64
		l1, t1, w1, h1 float64
		param          uint8
	}{
		{noise, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{noise, 24, 1, 3, 2, 12, 9, 0, 0, 0, 0, 1},
		{noise, 24, 2, 2, 2, 10, 8, 7, 5, 12, 10, 2},
		{hostile, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{hostile, 24, 2, -4, 1, 30, 40, 100, 100, 5, 5, 3},
		{hostile, 24, 1, 3.5, 2.25, 0.5, 14, 0, 0, 0, 0, 2},
		{square, 20, 2, 4, 3, 6, 6, 10, 8, 6, 6, 0},
		{square, 20, 2, nan, 2, 10, 10, 2, 2, inf, 9, 1},
		{square, 20, 1, -inf, -inf, inf, inf, 0, 0, 0, 0, 4},
		{square, 20, 2, 8, 8, 0, 5, 12, 4, -3, -3, 0},
		{square, 20, 1, -1e300, -1e300, 1e301, 1e301, 0, 0, 0, 0, 3},
		{noise, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{noise[:9], 3, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1},
		{[]float32{negZero, negZero, negZero, negZero, -sub, negZero, negZero, negZero, negZero, negZero, negZero, negZero}, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		// The table's kept columns at r = 1 (params 1): two masks whose
		// window columns are disjoint, adjacent and overlapping; a mask
		// reaching table columns 0 and w; and at r = 4 (params 3) a narrow
		// mask whose two column runs are disjoint, at the right edge.
		{noise, 24, 2, 2, 3, 4, 6, 16, 5, 4, 6, 1},
		{noise, 24, 2, 2, 3, 4, 6, 11, 5, 5, 6, 1},
		{noise, 24, 2, 2, 3, 4, 6, 8, 5, 5, 6, 1},
		{noise, 24, 1, 0, 4, 24, 8, 0, 0, 0, 0, 1},
		{noise, 24, 2, 20, 2, 3, 12, 1, 6, 2, 9, 3},
	} {
		f.Add(pixels(c.pix...), c.width, c.masks, c.l0, c.t0, c.w0, c.h0, c.l1, c.t1, c.w1, c.h1, c.param)
	}
	params := []Params{
		trackerParams(),
		{MaxCorners: 0, Quality: 0.01, MinDistance: 0, BlockSize: 3},
		{MaxCorners: 7, Quality: 0.2, MinDistance: 2.5, BlockSize: 4},
		{MaxCorners: 0, Quality: 0.001, MinDistance: 0.5, BlockSize: 9},
		{MaxCorners: 0, Quality: 0.001, MinDistance: 1e12, BlockSize: 101},
	}
	var s Scratch
	f.Fuzz(func(t *testing.T, pix []byte, width, masks uint8, l0, t0, w0, h0, l1, t1, w1, h1 float64, param uint8) {
		n := min(len(pix)/4, 48*48)
		if n == 0 {
			return
		}
		w := 1 + (int(width)+n-1)%min(n, 48)
		img := noiseImage(w, n/w, 0)
		for i := range img.Pix {
			img.Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(pix[4*i:]))
		}
		rects := []geom.Rect{{Left: l0, Top: t0, W: w0, H: h0}, {Left: l1, Top: t1, W: w1, H: h1}}[:masks%3]
		p := params[int(param)%len(params)]
		got, want := s.Detect(img, rects, p), detectRef(img, rects, p)
		name := fmt.Sprintf("%dx%d masks %v params %+v", img.W, img.H, rects, p)
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: %d features (nil %v), reference %d (nil %v)", name, len(got), got == nil, len(want), want == nil)
		}
		for i := range got {
			a, b := got[i].Score, want[i].Score
			if got[i].Pt != want[i].Pt || math.Float64bits(a) != math.Float64bits(b) && !(a != a && b != b) {
				t.Fatalf("%s: feature %d = %v score %x, reference %v score %x", name, i,
					got[i].Pt, math.Float64bits(a), want[i].Pt, math.Float64bits(b))
			}
		}
	})
}
