package imgproc

import (
	"testing"

	"adavp/internal/ledger"
)

// TestSteadyStateAllocs is imgproc's part of the allocation ledger (DESIGN
// §9.2). No row allocates: the temporaries come from the Scratch free list,
// the gradients' band-local rows from the Scratch's rings, the resize tap
// tables from their pool, and each fan-out's band is a field of the Scratch,
// the Integral or the tap tables. The fan-outs are two passes per blur and
// per reduction, one per gradient pair (the streamed Scharr body) and one per
// pass of the summed-area table and of the resize. A downscale's taps all fall inside
// the source; only the upscale row reaches the clamped Bilinear path at the
// borders.
func TestSteadyStateAllocs(t *testing.T) {
	g := testImage(704, 396)
	var s Scratch
	blur, gx, gy := NewGray(g.W, g.H), NewGray(g.W, g.H), NewGray(g.W, g.H)
	half, small, big := NewGray(g.W/2, g.H/2), NewGray(512, 288), NewGray(800, 450)
	var pyr Pyramid
	var it Integral
	ledger.Check(t, []ledger.Row{
		{Name: "GaussianBlurInto", Want: 0, Fanouts: 2, Run: func() { GaussianBlurInto(blur, g, 1.5, &s) }},
		{Name: "GradientsInto", Want: 0, Fanouts: 1, Run: func() { GradientsInto(gx, gy, g, &s) }},
		{Name: "Downsample2Into", Want: 0, Fanouts: 2, Run: func() { Downsample2Into(half, g, &s) }},
		{Name: "Pyramid.Rebuild", Want: 0, Fanouts: 4, Run: func() { pyr.Rebuild(g, 3, &s) }},
		{Name: "Integral.Rebuild", Want: 0, Fanouts: 2, Run: func() { it.Rebuild(g) }},
		{Name: "ResizeInto", Want: 0, Fanouts: 1, Run: func() { g.ResizeInto(small) }},
		{Name: "ResizeInto(upscale)", Want: 0, Fanouts: 1, Run: func() { g.ResizeInto(big) }},
	})
}
